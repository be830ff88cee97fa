package harness

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

// The chaos kit: the random builders, the error classifier and the drain
// audit every soak in chaos_test.go shares. Each soak's invariant is the
// same robustness contract: an operation either ends bit-identical to an
// oracle — the in-memory reference engine, or the base graph plus the
// acknowledged mutation stream — or fails with a classified sentinel,
// never with a silently wrong answer; and once a case drains it leaves
// nothing behind.

// outcome is what one soak case exercised: its schedule for the log, and
// a count per outcome the test driver can require.
type outcome struct {
	desc string
	n    map[string]int
}

// chaosFamilies are the error families a run under chaos may legitimately
// end in, named after mlvcd's wire codes where it has one. Anything else
// fails the soak.
var chaosFamilies = []struct {
	name string
	err  error // nil: a code mlvcd sheds with before any run starts
}{
	{"no_space", ssd.ErrNoSpace},
	{"deadline", core.ErrDeadline},
	{"deadline", context.DeadlineExceeded},
	{"interrupted", core.ErrInterrupted},
	{"canceled", context.Canceled},
	{"crash", ssd.ErrInjected},
	{"device_fault", ssd.ErrRetriesExhausted},
	{"corrupt", core.ErrCorruptData},
	{"corrupt", ssd.ErrCorruptPage},
	{"corrupt", ckpt.ErrCorrupt},
	{"breaker_open", nil},
	{"overloaded", nil},
}

// classify names err's family, "" when it has none.
func classify(err error) string {
	for _, f := range chaosFamilies {
		if f.err != nil && errors.Is(err, f.err) {
			return f.name
		}
	}
	return ""
}

// classifiedCode reports whether an mlvcd error code names a family.
func classifiedCode(code string) bool {
	for _, f := range chaosFamilies {
		if f.name == code {
			return true
		}
	}
	return false
}

// randGraph draws a graph from the first k of three families: uniform,
// grid, R-MAT.
func randGraph(rng *rand.Rand, k int) ([]graphio.Edge, uint32, error) {
	var edges []graphio.Edge
	var err error
	switch rng.Intn(k) {
	case 0:
		edges, err = gen.Uniform(uint32(40+rng.Intn(200)), 150+rng.Intn(600), rng.Int63(), true)
	case 1:
		edges, err = gen.Grid(3+rng.Intn(10), 3+rng.Intn(10))
	default:
		edges, err = gen.RMAT(gen.DefaultRMAT(6+rng.Intn(3), 2+rng.Intn(4), rng.Int63()))
	}
	return edges, graphio.NumVertices(edges), err
}

// randMutations draws k mutations over n vertices, one in delOneIn a
// delete.
func randMutations(rng *rand.Rand, n uint32, k, delOneIn int) []csr.Mutation {
	batch := make([]csr.Mutation, k)
	for i := range batch {
		batch[i] = csr.Mutation{
			Del: rng.Intn(delOneIn) == 0,
			Src: uint32(rng.Intn(int(n))),
			Dst: uint32(rng.Intn(int(n))),
		}
	}
	return batch
}

// chaosSetup is one engine case: a graph, the device geometry and budgets
// it runs under, and a program with its superstep count.
type chaosSetup struct {
	ds       Dataset
	devCfg   ssd.Config
	ivBudget int64
	mem      int64
	mkProg   func() vc.Program
	steps    int
}

// randSetup draws a setup over a graph from randGraph's first k
// families. The geometry is drawn once, so a crashed run and its resume
// see the same layout.
func randSetup(rng *rand.Rand, k int) (chaosSetup, error) {
	edges, n, err := randGraph(rng, k)
	if err != nil {
		return chaosSetup{}, fmt.Errorf("gen: %w", err)
	}
	s := chaosSetup{
		ds: Dataset{Name: "chaos", Edges: edges, N: n},
		devCfg: ssd.Config{
			PageSize: 128 << rng.Intn(4),
			Channels: 1 + rng.Intn(8),
			Retry:    ssd.RetryPolicy{MaxRetries: 4},
		},
		ivBudget: int64(256 + rng.Intn(4096)),
		mem:      int64(4096 + rng.Intn(1<<16)),
	}
	src := uint32(rng.Intn(int(n)))
	progs := []func() vc.Program{
		func() vc.Program { return &apps.PageRank{} },
		func() vc.Program { return &apps.BFS{Source: src} },
		func() vc.Program { return &apps.CDLP{} },
		func() vc.Program { return &apps.WCC{} },
	}
	s.mkProg = progs[rng.Intn(len(progs))]
	s.steps = 4 + rng.Intn(8)
	return s, nil
}

// env builds the setup's graph on a fresh device — in RAM, or backed by
// dir when set — or, with reopen, opens the graph an earlier device left
// in dir, the way a restarted process does.
func (s chaosSetup) env(dir string, reopen bool) (*Env, error) {
	cfg := s.devCfg
	cfg.Dir = dir
	dev, err := ssd.Open(cfg)
	if err != nil {
		return nil, err
	}
	var g *csr.Graph
	if reopen {
		g, err = csr.Open(dev, s.ds.Name)
	} else {
		g, err = csr.Build(dev, s.ds.Name, s.ds.Edges, csr.BuildOptions{
			NumVertices: s.ds.N, IntervalBudget: s.ivBudget,
		})
	}
	if err != nil {
		return nil, err
	}
	return &Env{Dev: dev, Graph: g, DS: s.ds, MemBudget: s.mem, PageSize: dev.PageSize()}, nil
}

// drainAudit is the check every soak case ends in: its device holds no
// query or run-tag scratch (".q"), the goroutines the case started have
// exited once they settle, and a device backed by dir leaves nothing
// there beyond the files it lists.
func drainAudit(dev *ssd.Device, dir string, goroutines int) error {
	live := map[string]bool{}
	for _, name := range dev.ListFiles() {
		if strings.Contains(name, ".q") {
			return fmt.Errorf("scratch file %q left behind", name)
		}
		live[name] = true
	}
	for settle := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(settle) {
			return fmt.Errorf("%d goroutines still running, %d before the case", runtime.NumGoroutine(), goroutines)
		}
	}
	if dir == "" {
		return nil
	}
	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		// A file's checksum sidecar belongs to the file.
		if name := strings.TrimSuffix(filepath.ToSlash(rel), ".mlvc-crc"); !live[name] {
			return fmt.Errorf("%q is on disk but not on the device", rel)
		}
		return nil
	})
}

// chaosCase runs one randomized resource-governance case: a random graph
// and program on a random engine under a random mix of transient faults,
// checksum corruption, a mid-run crash, no-space injection, a forced sort
// spill, and a deadline or cancellation, on a RAM device or one backed by
// dir. The run must finish bit-identical to the in-memory reference
// engine — resuming from its checkpoint if it crashed or timed out, on a
// device reopened cold over dir when there is one — or end classified.
func chaosCase(seed int64, dir string) (outcome, error) {
	goroutines := runtime.NumGoroutine()
	out := outcome{n: map[string]int{}}
	dev, err := chaosLegs(seed, dir, &out)
	if err == nil {
		err = drainAudit(dev, dir, goroutines)
	}
	if err != nil {
		return out, fmt.Errorf("seed %d [%s]: %w", seed, out.desc, err)
	}
	return out, nil
}

// chaosLegs runs chaosCase's legs and returns the device it ended on.
func chaosLegs(seed int64, dir string, out *outcome) (*ssd.Device, error) {
	rng := rand.New(rand.NewSource(seed))
	s, err := randSetup(rng, 3)
	if err != nil {
		return nil, err
	}
	want := vc.NewRef(s.ds.Edges, s.ds.N).Run(s.mkProg(), s.steps).Values
	env, err := s.env(dir, false)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}

	// Engine: mostly MultiLogVC (the governed engine), baselines for the
	// shared device-level governance (retry-ctx, no-space, corruption).
	engine := []string{"multilogvc", "multilogvc", "multilogvc", "graphchi", "grafboost"}[rng.Intn(5)]
	opts := RunOpts{MaxSupersteps: s.steps, Workers: 1 + rng.Intn(4)}
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
	out.desc = fmt.Sprintf("%s/%s %s", engine, s.mkProg().Name(), schedule[1:])

	// Checkpoint when the schedule can kill the run mid-flight, so a
	// second leg can finish the computation.
	if engine == "multilogvc" {
		opts.CheckpointEvery = 1 + rng.Intn(3)
	}
	run := func(env *Env, o RunOpts) ([]uint32, error) {
		var vals []uint32
		var err error
		switch engine {
		case "graphchi":
			_, vals, err = RunGraphChi(env, s.mkProg(), o)
		case "grafboost":
			if _, ok := s.mkProg().(vc.Combiner); !ok {
				o.Adapted = true
			}
			_, vals, err = RunGraFBoost(env, s.mkProg(), o)
		default:
			_, vals, err = RunMLVC(env, s.mkProg(), o)
		}
		return vals, err
	}

	got, err := run(env, opts)
	if err == nil {
		if !slices.Equal(got, want) {
			return nil, errors.New("silent divergence from reference")
		}
		out.n["clean"]++
		return env.Dev, nil
	}
	family := classify(err)
	if family == "" {
		return nil, fmt.Errorf("unclassified failure: %w", err)
	}
	out.n[family]++
	if !plan.Crash && family == "crash" {
		return nil, fmt.Errorf("ErrInjected without a crash armed: %w", err)
	}

	// Second leg: a MultiLogVC run that crashed or ran out of time holds a
	// committed checkpoint; disarm the hazards and finish from it. Stored
	// corruption can persist past disarming, so a classified corruption
	// exit remains acceptable — but a wrong answer never is.
	resumable := opts.CheckpointEvery > 0 &&
		(family == "crash" || family == "deadline" || family == "interrupted" || family == "canceled")
	if !resumable {
		return env.Dev, nil
	}
	env.Dev.SetFaults(ssd.FaultPlan{})
	if dir != "" {
		// The crashed process's device is abandoned unsynced; its restart
		// opens the directory cold.
		if env, err = s.env(dir, true); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
	}
	opts.Context = context.Background()
	opts.Resume = true
	if got, err = run(env, opts); err != nil {
		if f := classify(err); f != "" {
			out.n[f]++
			return env.Dev, nil
		}
		return nil, fmt.Errorf("unclassified resume failure: %w", err)
	}
	if !slices.Equal(got, want) {
		return nil, errors.New("resumed run diverged from reference")
	}
	out.n["resumed"]++
	return env.Dev, nil
}
