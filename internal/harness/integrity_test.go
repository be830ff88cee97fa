package harness

// End-to-end data-plane integrity: edge-log corruption heals from the
// CSR, message-log corruption rolls back to a checkpoint (or fails
// classified without one), and a graceful interrupt checkpoints a
// resumable run. Every recovery must be bit-identical to an undamaged
// run — a wrong answer is worse than a crash.

import (
	"context"
	"errors"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/engine"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

const integritySteps = 6

// TestElogCorruptionHealsBitIdentical corrupts every physical edge-log
// read (probability 1) for each app, cached and uncached. The edge log
// is a redundant adjacency cache, so the engine must invalidate the
// damaged generation, re-fetch from the CSR, count the heal, and still
// produce bit-identical values.
func TestElogCorruptionHealsBitIdentical(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	var totalHealed uint64
	for _, cacheMB := range []int{-1, 4} {
		mode := "uncached"
		if cacheMB > 0 {
			mode = "cached"
		}
		for _, app := range crashApps {
			name := app.name + "/" + mode
			opts := EnvOptions{CacheMB: cacheMB}
			// Log every fetched adjacency so the edge log is genuinely in
			// the read path at test scale.
			run := func(env *Env) (*superstep.Result, error) {
				return core.New(env.Graph, core.Config{MemoryBudget: env.MemBudget,
					MaxSupersteps: integritySteps, UtilThreshold: 1.5}).Run(app.make())
			}

			env, err := Prepare(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := run(env)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}

			env, err = Prepare(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			env.Dev.SetFaults(ssd.FaultPlan{Seed: 0xE106, Corrupt: ssd.Trigger{Prob: 1}, CorruptOnly: ".elog"})
			res, err := run(env)
			if err != nil {
				t.Fatalf("%s: run under elog corruption: %v", name, err)
			}
			valuesEqual(t, name, res.Values, ref.Values)
			rep := res.Report
			var elogReads uint64
			for _, ss := range ref.Report.Supersteps {
				elogReads += ss.EdgeLogPagesRead
			}
			if elogReads > 0 && rep.ElogHealed == 0 {
				t.Errorf("%s: reference read %d elog pages but corrupted run healed nothing",
					name, elogReads)
			}
			if rep.ElogHealed > 0 && rep.CorruptPages == 0 {
				t.Errorf("%s: healed %d without counting corrupt pages", name, rep.ElogHealed)
			}
			totalHealed += rep.ElogHealed
		}
	}
	if totalHealed == 0 {
		t.Fatal("no app/mode combination exercised the edge-log heal path")
	}
}

// TestMlogCorruptionRollsBackBitIdentical scripts a single corrupt
// message-log page read mid-run. The message log is vital state, so a
// checkpointing run must roll back to the newest checkpoint, re-execute,
// and land on bit-identical values, reporting the rollback.
func TestMlogCorruptionRollsBackBitIdentical(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	const every = 2
	for _, app := range crashApps {
		opts := EnvOptions{CacheMB: -1} // uncached: physical reads are deterministic

		// Reference run counts physical mlog reads so the fault run can
		// script an exact one.
		env, err := Prepare(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		env.Dev.SetFaults(ssd.FaultPlan{CorruptOnly: ".mlog."})
		_, want, err := env.Run(app.make(), engine.Options{MaxSupersteps: integritySteps, CheckpointEvery: every})
		if err != nil {
			t.Fatalf("%s: reference: %v", app.name, err)
		}
		ops := env.Dev.CorruptOps()
		if ops == 0 {
			t.Fatalf("%s: reference run read no mlog pages; nothing to corrupt", app.name)
		}

		for _, target := range []int64{ops / 2, 3 * ops / 4} {
			env, err := Prepare(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			env.Dev.SetFaults(ssd.FaultPlan{Corrupt: ssd.Trigger{At: []int64{target}}, CorruptOnly: ".mlog."})
			rep, got, err := env.Run(app.make(),
				engine.Options{MaxSupersteps: integritySteps, CheckpointEvery: every})
			if err != nil {
				t.Fatalf("%s: corrupt mlog read %d/%d not recovered: %v", app.name, target, ops, err)
			}
			valuesEqual(t, app.name, got, want)
			if rep.Rollbacks == 0 {
				t.Errorf("%s: recovered from mlog corruption at read %d without reporting a rollback",
					app.name, target)
			}
		}
	}
}

// TestMlogCorruptionWithoutCheckpointsFailsClassified is the other half
// of the contract: with no checkpoint to roll back to, vital-state
// corruption must surface as ErrCorruptData — a classified failure, never
// a silent wrong answer.
func TestMlogCorruptionWithoutCheckpointsFailsClassified(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	opts := EnvOptions{CacheMB: -1}

	env, err := Prepare(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.Dev.SetFaults(ssd.FaultPlan{CorruptOnly: ".mlog."})
	if _, _, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: integritySteps}); err != nil {
		t.Fatalf("reference: %v", err)
	}
	ops := env.Dev.CorruptOps()
	if ops == 0 {
		t.Fatal("reference run read no mlog pages")
	}

	env, err = Prepare(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.Dev.SetFaults(ssd.FaultPlan{Corrupt: ssd.Trigger{At: []int64{ops / 2}}, CorruptOnly: ".mlog."})
	_, _, err = env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: integritySteps})
	if !errors.Is(err, core.ErrCorruptData) {
		t.Fatalf("err = %v, want ErrCorruptData in chain", err)
	}
	if !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("err = %v, want the ErrCorruptPage cause preserved", err)
	}
}

// TestInterruptCheckpointsAndResumes cancels the run context two
// supersteps in: the run must commit a checkpoint — even with periodic
// checkpointing disabled — return ErrInterrupted, and a resumed run must
// finish bit-identical to an uninterrupted one.
func TestInterruptCheckpointsAndResumes(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range crashApps {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := env.Run(app.make(), engine.Options{MaxSupersteps: integritySteps})
		if err != nil {
			t.Fatalf("%s: reference: %v", app.name, err)
		}

		env, err = Prepare(ds, EnvOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stop := func(step int, cum uint64) bool {
			if step >= 1 {
				cancel()
			}
			return false
		}
		_, _, err = env.Run(app.make(),
			engine.Options{MaxSupersteps: integritySteps, StopAfter: stop, Context: ctx})
		cancel()
		if !errors.Is(err, core.ErrInterrupted) {
			t.Fatalf("%s: interrupted run err = %v, want ErrInterrupted", app.name, err)
		}

		rep, got, err := env.Run(app.make(),
			engine.Options{MaxSupersteps: integritySteps, Resume: true})
		if err != nil {
			t.Fatalf("%s: resume after interrupt: %v", app.name, err)
		}
		valuesEqual(t, app.name, got, want)
		if !rep.Resumed {
			t.Errorf("%s: resumed run does not report Resumed", app.name)
		}
	}
}

// TestScrubAfterRun runs an app and scrubs the device clean, then plants
// damage and confirms the scrub flags exactly the damaged file.
func TestScrubAfterRun(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: integritySteps}); err != nil {
		t.Fatal(err)
	}
	res, err := env.Dev.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, r := range res {
		if !r.OK() {
			t.Fatalf("clean run left corrupt pages: %+v", r)
		}
		if victim == "" && r.Pages > 0 {
			victim = r.File
		}
	}
	if victim == "" {
		t.Fatal("no file with pages to damage")
	}
	if err := env.Dev.CorruptStoredPage(victim, 0); err != nil {
		t.Fatal(err)
	}
	res, err = env.Dev.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for _, r := range res {
		if !r.OK() {
			flagged++
			if r.File != victim {
				t.Fatalf("scrub flagged %q, damaged %q", r.File, victim)
			}
		}
	}
	if flagged != 1 {
		t.Fatalf("scrub flagged %d files, want 1", flagged)
	}
}

var _ vc.Program = (*apps.PageRank)(nil)
