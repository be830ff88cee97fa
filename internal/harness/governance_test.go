package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/engine"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// TestSpillForcedBitIdentical is the sort-budget acceptance check: a sort
// budget far below every interval's log forces the external sort-group on
// PageRank (combinable), BFS (traversal), and RandomWalk (non-combinable,
// multi-message), and the final values must be bit-identical to the
// unconstrained in-memory path.
func TestSpillForcedBitIdentical(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	progs := []struct {
		name string
		make func() vc.Program
	}{
		{"pagerank", func() vc.Program { return &apps.PageRank{} }},
		{"bfs", func() vc.Program { return &apps.BFS{Source: 0} }},
		{"randomwalk", func() vc.Program {
			return &apps.RandomWalk{SampleEvery: 8, WalkLength: 6, Seed: 99}
		}},
	}
	const steps = 6
	for _, p := range progs {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := env.Run(p.make(), engine.Options{MaxSupersteps: steps})
		if err != nil {
			t.Fatalf("%s reference: %v", p.name, err)
		}

		env, err = Prepare(ds, EnvOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep, got, err := env.Run(p.make(), engine.Options{MaxSupersteps: steps, SortBudget: 256})
		if err != nil {
			t.Fatalf("%s spill-forced: %v", p.name, err)
		}
		valuesEqual(t, p.name+"/spilled", got, want)
		if rep.Spills == 0 || rep.SpillBytes == 0 {
			t.Fatalf("%s: 256-byte sort budget spilled %d batches (%d bytes) — spill path not exercised",
				p.name, rep.Spills, rep.SpillBytes)
		}
	}
}

// TestNoSpaceAbsorbedByReclaim: a single injected no-space fault on the
// message-log write path is absorbed by the reclaim-then-retry cycle — the
// run completes bit-identically and reports the fault and the sweep.
func TestNoSpaceAbsorbedByReclaim(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 5})
	if err != nil {
		t.Fatal(err)
	}

	env, err = Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env.Dev.SetFaults(ssd.FaultPlan{NoSpace: ssd.Trigger{At: []int64{25}}}) // one credit: mid-run, absorbed by the retry
	rep, got, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 5})
	if err != nil {
		t.Fatalf("single no-space fault not absorbed: %v", err)
	}
	valuesEqual(t, "nospace-absorbed", got, want)
	if rep.NoSpaceFaults == 0 || rep.Reclaims == 0 {
		t.Fatalf("report: %d no-space faults, %d reclaims — governance counters not threaded",
			rep.NoSpaceFaults, rep.Reclaims)
	}
}

// TestNoSpaceClassified: a no-space fault that persists through the
// post-reclaim retry must end the run classified as ssd.ErrNoSpace, never
// silently truncated.
func TestNoSpaceClassified(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env.Dev.SetFaults(ssd.FaultPlan{NoSpace: ssd.Trigger{At: []int64{25, 26}}}) // both attempts of one logical write
	_, _, err = env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 5})
	if !errors.Is(err, ssd.ErrNoSpace) {
		t.Fatalf("persistent no-space surfaced %v, want ssd.ErrNoSpace", err)
	}
}

// TestQuotaRunReclaimsOrClassifies: under a hard byte quota between the
// final footprint and the unbounded peak, the run either completes
// bit-identically (reclaiming consumed log intervals along the way) or
// exits classified. Probing a range of quotas must exhibit the reclaim
// path at least once.
func TestQuotaRunReclaimsOrClassifies(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 5, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	floor := env.Dev.UsedBytes()

	reclaimedOnce := false
	for _, slack := range []int64{64 << 10, 16 << 10, 4 << 10, 1 << 10, 0} {
		env, err := Prepare(ds, EnvOptions{Capacity: floor + slack})
		if err != nil {
			t.Fatal(err)
		}
		rep, got, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 5, CheckpointEvery: 2})
		if err != nil {
			if !errors.Is(err, ssd.ErrNoSpace) {
				t.Fatalf("quota %d: unclassified failure %v", floor+slack, err)
			}
			continue
		}
		valuesEqual(t, "quota-run", got, want)
		if rep.Reclaims > 0 {
			reclaimedOnce = true
		}
	}
	if !reclaimedOnce {
		t.Fatal("no probed quota exercised the reclaim path; tighten the slack schedule")
	}
}

// TestDeadlineCheckpointAndResume: an expired deadline stops the run at a
// superstep boundary with core.ErrDeadline after committing a checkpoint;
// resuming without the deadline finishes bit-identically.
func TestDeadlineCheckpointAndResume(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 5})
	if err != nil {
		t.Fatal(err)
	}

	env, err = Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // deadline has certainly passed
	_, _, err = env.Run(&apps.PageRank{}, engine.Options{
		MaxSupersteps: 5, CheckpointEvery: 1, Context: ctx,
	})
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("expired deadline surfaced %v, want core.ErrDeadline", err)
	}
	rep, got, err := env.Run(&apps.PageRank{}, engine.Options{
		MaxSupersteps: 5, CheckpointEvery: 1, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume after deadline: %v", err)
	}
	valuesEqual(t, "deadline-resume", got, want)
	_ = rep
}

// TestCancelAbortsBaselines: both baselines honor a cancelled context at
// the next superstep boundary with the context error in the chain.
func TestCancelAbortsBaselines(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.Run(&apps.PageRank{}, engine.Options{Engine: engine.GraphChi, MaxSupersteps: 5, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("graphchi with cancelled ctx: %v, want context.Canceled", err)
	}
	if _, _, err := env.Run(&apps.PageRank{}, engine.Options{Engine: engine.GraFBoost, MaxSupersteps: 5, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("grafboost with cancelled ctx: %v, want context.Canceled", err)
	}
}
