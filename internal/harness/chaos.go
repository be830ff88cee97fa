package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/ckpt"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// ChaosOutcome summarizes one chaos case for logging: which schedule ran
// and how it ended.
type ChaosOutcome struct {
	Seed     int64
	Engine   string
	App      string
	Schedule string // human-readable fault mix, e.g. "transient+nospace+spill"
	// Classified is the sentinel family the run ended in, "" for a clean
	// bit-identical finish.
	Classified string
	// Resumed reports that the case crashed (or hit a deadline) and then
	// finished bit-identically from its checkpoint.
	Resumed bool
}

// chaosClassified are the error families a governed run may legitimately
// end in. Anything else — above all a silently wrong answer — fails the
// soak.
var chaosClassified = []struct {
	name string
	err  error
}{
	{"nospace", ssd.ErrNoSpace},
	{"deadline", core.ErrDeadline},
	{"deadline", context.DeadlineExceeded},
	{"interrupted", core.ErrInterrupted},
	{"canceled", context.Canceled},
	{"crash", ssd.ErrInjected},
	{"retries-exhausted", ssd.ErrRetriesExhausted},
	{"corrupt-data", core.ErrCorruptData},
	{"corrupt-page", ssd.ErrCorruptPage},
	{"corrupt-checkpoint", ckpt.ErrCorrupt},
}

func classify(err error) string {
	for _, c := range chaosClassified {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return ""
}

// ChaosCase runs one randomized resource-governance case: a random graph
// and program on a random engine under a random mix of transient faults,
// checksum corruption, a mid-run crash, no-space injection, a forced sort
// spill, and a deadline or cancellation. The invariant it enforces is the
// robustness contract of the whole stack: the run either finishes with
// values bit-identical to the in-memory reference engine (resuming from a
// checkpoint if it crashed or timed out), or fails with a classified
// sentinel — never a silently wrong answer.
func ChaosCase(seed int64) (ChaosOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	out := ChaosOutcome{Seed: seed}

	// Random graph.
	var edges []graphio.Edge
	var err error
	switch rng.Intn(3) {
	case 0:
		edges, err = gen.RMAT(gen.DefaultRMAT(6+rng.Intn(3), 2+rng.Intn(4), rng.Int63()))
	case 1:
		edges, err = gen.Uniform(uint32(50+rng.Intn(250)), 200+rng.Intn(700), rng.Int63(), true)
	default:
		edges, err = gen.Grid(3+rng.Intn(10), 3+rng.Intn(10))
	}
	if err != nil {
		return out, fmt.Errorf("gen: %w", err)
	}
	if len(edges) == 0 {
		return out, nil
	}
	n := graphio.NumVertices(edges)

	// Random program; the in-memory reference engine supplies ground truth.
	src := uint32(rng.Intn(int(n)))
	progs := []func() vc.Program{
		func() vc.Program { return &apps.PageRank{} },
		func() vc.Program { return &apps.BFS{Source: src} },
		func() vc.Program { return &apps.WCC{} },
		func() vc.Program { return &apps.CDLP{} },
	}
	mkProg := progs[rng.Intn(len(progs))]
	steps := 4 + rng.Intn(8)
	out.App = mkProg().Name()
	want := vc.NewRef(edges, n).Run(mkProg(), steps).Values

	// One device geometry per case so a crashed run and its resume see the
	// same layout.
	devCfg := ssd.Config{
		PageSize: 128 << rng.Intn(4),
		Channels: 1 + rng.Intn(8),
		Retry:    ssd.RetryPolicy{MaxRetries: 4},
	}
	ivBudget := int64(256 + rng.Intn(4096))
	mem := int64(4096 + rng.Intn(1<<16))
	mkEnv := func() (*Env, error) {
		dev, err := ssd.Open(devCfg)
		if err != nil {
			return nil, err
		}
		g, err := csr.Build(dev, "chaos", edges, csr.BuildOptions{
			NumVertices: n, IntervalBudget: ivBudget,
		})
		if err != nil {
			return nil, err
		}
		return &Env{Dev: dev, Graph: g, DS: Dataset{Name: "chaos", Edges: edges, N: n},
			MemBudget: mem, PageSize: dev.PageSize()}, nil
	}
	env, err := mkEnv()
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}

	// Engine: mostly MultiLogVC (the governed engine), baselines for the
	// shared device-level governance (retry-ctx, no-space, corruption).
	engine := []string{"multilogvc", "multilogvc", "multilogvc", "graphchi", "grafboost"}[rng.Intn(5)]
	out.Engine = engine

	opts := RunOpts{MaxSupersteps: steps, Workers: 1 + rng.Intn(4)}
	schedule := ""
	add := func(s string) { schedule += "+" + s }

	// Fault mix: each hazard independently armed.
	plan := ssd.FaultPlan{Seed: uint64(seed) | 1}
	if rng.Intn(2) == 0 {
		plan.Transient.Prob = 0.005 + rng.Float64()*0.02
		add("transient")
	}
	if rng.Intn(3) == 0 {
		plan.NoSpace.Prob = 0.01 + rng.Float64()*0.05
		add("nospace")
	}
	if engine == "multilogvc" && rng.Intn(3) == 0 {
		filters := []string{".elog", ".mlog.", ".values"}
		plan.CorruptOnly = filters[rng.Intn(len(filters))]
		plan.Corrupt.Prob = 0.002 + rng.Float64()*0.02
		add("corrupt")
	}
	if engine == "multilogvc" && rng.Intn(3) == 0 {
		opts.SortBudget = int64(64 + rng.Intn(512)) // tiny: forces spilling
		add("spill")
	}
	if rng.Intn(3) == 0 {
		// Crash depth is calibrated against a rough op estimate; if the
		// credit outlives the run the case degrades to fault-free, which
		// the invariant still covers.
		plan.Crash, plan.CrashAfter = true, 20+rng.Int63n(600)
		add("crash")
	}
	env.Dev.SetFaults(plan)
	ctx := context.Background()
	var cancel context.CancelFunc
	switch rng.Intn(4) {
	case 0:
		ctx, cancel = context.WithTimeout(ctx, time.Duration(50+rng.Intn(5000))*time.Microsecond)
		add("deadline")
	case 1:
		ctx, cancel = context.WithCancel(ctx)
		go func(d time.Duration) { time.Sleep(d); cancel() }(time.Duration(rng.Intn(2000)) * time.Microsecond)
		add("cancel")
	}
	if cancel != nil {
		defer cancel()
	}
	opts.Context = ctx
	if schedule == "" {
		schedule = "+none"
	}
	out.Schedule = schedule[1:]

	// Checkpoint when the schedule can kill the run mid-flight, so a
	// second leg can finish the computation.
	every := 0
	if engine == "multilogvc" {
		every = 1 + rng.Intn(3)
		opts.CheckpointEvery = every
	}

	run := func(o RunOpts) (*Env, []uint32, error) {
		switch engine {
		case "graphchi":
			_, vals, err := RunGraphChi(env, mkProg(), o)
			return env, vals, err
		case "grafboost":
			if _, ok := mkProg().(vc.Combiner); !ok {
				o.Adapted = true
			}
			_, vals, err := RunGraFBoost(env, mkProg(), o)
			return env, vals, err
		default:
			_, vals, err := RunMLVC(env, mkProg(), o)
			return env, vals, err
		}
	}

	_, got, err := run(opts)
	if err == nil {
		if !sliceEqual(got, want) {
			return out, fmt.Errorf("seed %d [%s/%s %s]: silent divergence from reference",
				seed, engine, out.App, out.Schedule)
		}
		return out, nil
	}
	family := classify(err)
	if family == "" {
		return out, fmt.Errorf("seed %d [%s/%s %s]: unclassified failure: %w",
			seed, engine, out.App, out.Schedule, err)
	}
	out.Classified = family

	// Second leg: a MultiLogVC run that crashed or ran out of time holds a
	// committed checkpoint; disarm the hazards and finish from it. Stored
	// corruption can persist past disarming, so a classified corruption
	// exit remains acceptable — but a wrong answer never is.
	resumable := engine == "multilogvc" && every > 0 &&
		(family == "crash" || family == "deadline" || family == "interrupted" || family == "canceled")
	if !plan.Crash && family == "crash" {
		return out, fmt.Errorf("seed %d [%s/%s %s]: ErrInjected without a crash armed: %w",
			seed, engine, out.App, out.Schedule, err)
	}
	if !resumable {
		return out, nil
	}
	env.Dev.SetFaults(ssd.FaultPlan{})
	resumeOpts := opts
	resumeOpts.Context = context.Background()
	resumeOpts.Resume = true
	_, got, err = run(resumeOpts)
	if err != nil {
		if f := classify(err); f != "" {
			out.Classified = f
			return out, nil
		}
		return out, fmt.Errorf("seed %d [%s/%s %s]: unclassified resume failure: %w",
			seed, engine, out.App, out.Schedule, err)
	}
	if !sliceEqual(got, want) {
		return out, fmt.Errorf("seed %d [%s/%s %s]: resumed run diverged from reference",
			seed, engine, out.App, out.Schedule)
	}
	out.Resumed = true
	return out, nil
}

func sliceEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
