package harness

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/engine"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// TestQuickCrossEngineEquality is the suite's strongest property test:
// for random graphs, random device geometries, and every program class,
// all three out-of-core engines must reproduce the in-memory reference
// engine's vertex values exactly.
func TestQuickCrossEngineEquality(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Random graph from a random generator family.
		var edges []graphio.Edge
		var err error
		switch rng.Intn(3) {
		case 0:
			edges, err = gen.RMAT(gen.DefaultRMAT(6+rng.Intn(3), 2+rng.Intn(5), rng.Int63()))
		case 1:
			edges, err = gen.Uniform(uint32(50+rng.Intn(300)), 200+rng.Intn(800), rng.Int63(), true)
		default:
			edges, err = gen.Grid(3+rng.Intn(12), 3+rng.Intn(12))
		}
		if err != nil || len(edges) == 0 {
			return err == nil
		}
		n := graphio.NumVertices(edges)

		// Random device geometry and memory budget.
		dev := ssd.MustOpen(ssd.Config{
			PageSize: 128 << rng.Intn(4), // 128..1024
			Channels: 1 + rng.Intn(8),
		})
		g, err := csr.Build(dev, "q", edges, csr.BuildOptions{
			NumVertices:    n,
			IntervalBudget: int64(256 + rng.Intn(4096)),
		})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		env := &Env{Dev: dev, Graph: g, DS: Dataset{Name: "q", Edges: edges, N: n},
			MemBudget: int64(4096 + rng.Intn(1<<16)), PageSize: dev.PageSize()}

		// A random program.
		progs := []vc.Program{
			&apps.BFS{Source: uint32(rng.Intn(int(n)))},
			&apps.PageRank{},
			&apps.CDLP{},
			&apps.Coloring{},
			&apps.MIS{Seed: rng.Uint64()},
			&apps.RandomWalk{SampleEvery: uint32(1 + rng.Intn(64)), WalkLength: uint32(1 + rng.Intn(12)), Seed: rng.Uint64()},
			&apps.WCC{},
			&apps.KCore{K: uint32(1 + rng.Intn(5))},
		}
		prog := progs[rng.Intn(len(progs))]
		steps := 5 + rng.Intn(25)

		ref := vc.NewRef(edges, n).Run(prog, steps)
		opts := engine.Options{MaxSupersteps: steps, Workers: 1 + rng.Intn(4)}

		gb := engine.GraFBoost
		if _, ok := prog.(vc.Combiner); !ok {
			gb = engine.GraFBoostAdapted
		}
		for _, kind := range []engine.Kind{engine.MultiLog, engine.GraphChi, gb} {
			opts.Engine = kind
			_, vals, err := env.Run(prog, opts)
			if err != nil {
				t.Logf("%s/%s: %v", kind, prog.Name(), err)
				return false
			}
			for v := range ref.Values {
				if vals[v] != ref.Values[v] {
					t.Logf("%s/%s seed %d: value[%d] = %d, ref %d",
						kind, prog.Name(), seed, v, vals[v], ref.Values[v])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashRecovery is the crash-recovery property: for random
// graphs, random checkpoint intervals, and random crash depths, a run
// killed mid-flight and resumed from its latest checkpoint must produce
// values bit-identical to an uninterrupted run. Half the cases also
// interleave probabilistic corruption of a random log or the value file
// with the crash: the combined outcome must be either bit-identical
// values (healed or rolled back) or a classified ErrCorruptData — a
// silently wrong answer fails the property.
func TestQuickCrashRecovery(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := randSetup(rng, 2)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		every := 1 + rng.Intn(3) // random checkpoint interval
		opts := engine.Options{MaxSupersteps: s.steps, Workers: 1 + rng.Intn(4)}

		// Two builds of one setup, so the reference and the crashed run
		// see identical layouts.
		env, err := s.env("", false)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		_, want, err := env.Run(s.mkProg(), opts)
		if err != nil {
			t.Logf("reference: %v", err)
			return false
		}
		st := env.Dev.Stats()
		total := int64(st.BatchReads + st.BatchWrites)
		if total < 2 {
			return true
		}

		env, err = s.env("", false)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		depth := 1 + rng.Int63n(total-1) // random crash depth
		plan := ssd.FaultPlan{Crash: true, CrashAfter: depth}
		corrupting := rng.Intn(2) == 0
		if corrupting {
			// Sticky bit flips land in a redundant log (heals), the message
			// log, or the value file (both roll back). Checkpoint files are
			// left alone: their loss is classified separately.
			filters := []string{".elog", ".mlog.", ".values"}
			plan.CorruptOnly = filters[rng.Intn(len(filters))]
			plan.Corrupt.Prob = 0.002 + rng.Float64()*0.01
			plan.Seed = uint64(seed) | 1
		}
		env.Dev.SetFaults(plan)
		ckOpts := opts
		ckOpts.CheckpointEvery = every
		_, got, err := env.Run(s.mkProg(), ckOpts)
		switch {
		case err == nil:
			// The fault credit outlived the checkpointing run; nothing
			// crashed, so the values must already match.
			return sameValues(t, seed, got, want)
		case corrupting && errors.Is(err, core.ErrCorruptData):
			// Corruption outran the rollback budget before the crash hit:
			// a classified failure, which the property accepts.
			return true
		case !errors.Is(err, ssd.ErrInjected):
			t.Logf("seed %d: crash at depth %d surfaced %v, want ErrInjected", seed, depth, err)
			return false
		}
		// The device comes back; corruption stays on, as it would.
		plan.Crash = false
		env.Dev.SetFaults(plan)
		ckOpts.Resume = true
		_, got, err = env.Run(s.mkProg(), ckOpts)
		if err != nil {
			if corrupting && errors.Is(err, core.ErrCorruptData) {
				return true
			}
			t.Logf("seed %d: resume after crash at depth %d (every %d): %v", seed, depth, every, err)
			return false
		}
		return sameValues(t, seed, got, want)
	}
	// A fixed case ahead of the random ones: corruption on the message log
	// forces a rollback whose checkpoint read meets the crash, so ckpt.Load
	// must hand back the dead device's ErrInjected, not "checkpoint corrupt".
	if seed := int64(9160155082817192844); !check(seed) {
		t.Fatalf("pinned seed %d failed", seed)
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func sameValues(t *testing.T, seed int64, got, want []uint32) bool {
	if !slices.Equal(got, want) {
		t.Logf("seed %d: values differ from the uninterrupted run", seed)
		return false
	}
	return true
}
