package harness

import (
	"errors"
	"math/rand"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/ckpt"
	"multilogvc/internal/engine"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// crashApps are the programs the crash harness exercises: a combinable
// fixpoint app, a traversal, and an aux-state program (CDLP checkpoints
// per-in-edge label state too).
var crashApps = []struct {
	name string
	make func() vc.Program
}{
	{"pagerank", func() vc.Program { return &apps.PageRank{} }},
	{"bfs", func() vc.Program { return &apps.BFS{Source: 0} }},
	{"cdlp", func() vc.Program { return &apps.CDLP{} }},
}

func valuesEqual(t *testing.T, name string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: value count %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: values diverge at vertex %d: %d != %d", name, i, got[i], want[i])
		}
	}
}

// TestCrashRecoveryBitIdentical is the crash-injection harness: for each
// app, cached and uncached, it (1) runs uninterrupted for the reference
// values, (2) kills a checkpointing run at randomized device-op depths by
// arming a permanent fault, (3) restarts from the latest checkpoint on the
// same device, and (4) verifies the final values are bit-identical to the
// uninterrupted run.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	const every = 2

	for _, cacheMB := range []int{-1, 4} {
		mode := "uncached"
		if cacheMB > 0 {
			mode = "cached"
		}
		for _, app := range crashApps {
			name := app.name + "/" + mode
			opts := EnvOptions{CacheMB: cacheMB}

			// Reference: uninterrupted, no checkpointing.
			env, err := Prepare(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := env.Run(app.make(), engine.Options{MaxSupersteps: steps})
			if err != nil {
				t.Fatalf("%s: reference run: %v", name, err)
			}
			st := env.Dev.Stats()
			total := int64(st.BatchReads + st.BatchWrites)
			if total < 10 {
				t.Fatalf("%s: too few ops (%d) to crash into", name, total)
			}

			// Checkpointing alone must not perturb the computation, and its
			// overhead must be visible in the report.
			env, err = Prepare(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, got, err := env.Run(app.make(), engine.Options{MaxSupersteps: steps, CheckpointEvery: every})
			if err != nil {
				t.Fatalf("%s: checkpointing run: %v", name, err)
			}
			valuesEqual(t, name+"/no-crash", got, want)
			if rep.Checkpoints == 0 || rep.CheckpointPages == 0 {
				t.Fatalf("%s: checkpointing run reported %d checkpoints, %d pages",
					name, rep.Checkpoints, rep.CheckpointPages)
			}

			// Crash at randomized op depths and resume on the same device.
			rng := rand.New(rand.NewSource(0x5EED ^ int64(len(app.name)) ^ int64(cacheMB)))
			depths := []int64{1 + rng.Int63n(total/4), total/4 + rng.Int63n(total/4), total/2 + rng.Int63n(total/2)}
			for _, depth := range depths {
				env, err := Prepare(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				env.Dev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: depth})
				_, got, err := env.Run(app.make(), engine.Options{MaxSupersteps: steps, CheckpointEvery: every})
				if err == nil {
					// The fault credit outlived the run: nothing crashed.
					valuesEqual(t, name+"/uncrashed", got, want)
					continue
				}
				if !errors.Is(err, ssd.ErrInjected) {
					t.Fatalf("%s: crash at depth %d surfaced %v, want ErrInjected in chain", name, depth, err)
				}
				env.Dev.SetFaults(ssd.FaultPlan{})
				rep, got, err := env.Run(app.make(),
					engine.Options{MaxSupersteps: steps, CheckpointEvery: every, Resume: true})
				if err != nil {
					t.Fatalf("%s: resume after crash at depth %d: %v", name, depth, err)
				}
				valuesEqual(t, name, got, want)
				if rep.Resumed && rep.ResumeStep == 0 {
					t.Errorf("%s: resumed run reports ResumeStep 0", name)
				}
			}
		}
	}
}

// TestResumeWithoutCheckpointStartsFresh: Resume on a device with no
// checkpoint degrades to a normal run from superstep 0.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	env2, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, got, err := env2.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 4, Resume: true})
	if err != nil {
		t.Fatalf("resume with no checkpoint: %v", err)
	}
	if rep.Resumed {
		t.Error("run with no checkpoint on device claims it resumed")
	}
	valuesEqual(t, "fresh-resume", got, want)
}

// TestResumeCorruptCheckpointFails: when every committed slot's payload
// is bit-rotted, Resume must fail with ckpt.ErrCorrupt rather than
// silently recompute.
func TestResumeCorruptCheckpointFails(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 4, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in both slots, leaving the manifests committed.
	for _, slot := range []string{"0", "1"} {
		data, err := env.Dev.OpenFile(ds.Name + ".pagerank.ckpt." + slot)
		if err != nil {
			continue
		}
		buf := make([]byte, env.Dev.PageSize())
		if err := data.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xff
		if err := data.WritePageRange(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 4, Resume: true})
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume over torn checkpoints returned %v, want ckpt.ErrCorrupt", err)
	}
}

// TestResumeFallsBackToOlderCheckpoint tears only the newest slot; resume
// must restart from the older committed checkpoint and still converge to
// the reference values.
func TestResumeFallsBackToOlderCheckpoint(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 6})
	if err != nil {
		t.Fatal(err)
	}

	env2, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env2.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 6, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	// Find the newest slot and tear it.
	best, err := ckpt.Load(env2.Dev, ds.Name+".pagerank")
	if err != nil {
		t.Fatal(err)
	}
	meta, err := env2.Dev.OpenFile(ds.Name + ".pagerank.ckpt." +
		string(rune('0'+best.Seq%2)) + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Truncate(); err != nil {
		t.Fatal(err)
	}
	rep, got, err := env2.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: 6, Resume: true})
	if err != nil {
		t.Fatalf("resume after tearing newest slot: %v", err)
	}
	if !rep.Resumed {
		t.Error("run did not resume from the surviving older checkpoint")
	}
	valuesEqual(t, "fallback", got, want)
}
