package harness

import (
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/metrics"
	"multilogvc/internal/vc"
)

// checkStageParity asserts the invariant the attribution layer guarantees
// by construction: per-stage rows partition the global counters exactly,
// per superstep and for the whole run.
func checkStageParity(t *testing.T, rep *metrics.Report, label string) {
	t.Helper()
	for _, ss := range rep.Supersteps {
		var pr, pw uint64
		var hits, misses uint64
		for _, st := range ss.Stages {
			pr += st.PagesRead
			pw += st.PagesWritten
			hits += st.CacheHits
			misses += st.CacheMisses
		}
		if pr != ss.PagesRead || pw != ss.PagesWritten {
			t.Fatalf("%s superstep %d: stage sums %d/%d != totals %d/%d",
				label, ss.Superstep, pr, pw, ss.PagesRead, ss.PagesWritten)
		}
		if hits != ss.CacheHits || misses != ss.CacheMisses {
			t.Fatalf("%s superstep %d: stage cache sums %d/%d != totals %d/%d",
				label, ss.Superstep, hits, misses, ss.CacheHits, ss.CacheMisses)
		}
	}
	var pr, pw uint64
	for _, st := range rep.Stages {
		pr += st.PagesRead
		pw += st.PagesWritten
	}
	if pr != rep.PagesRead || pw != rep.PagesWritten {
		t.Fatalf("%s report: stage sums %d/%d != totals %d/%d",
			label, pr, pw, rep.PagesRead, rep.PagesWritten)
	}
	if pr == 0 {
		t.Fatalf("%s report: no stage-attributed IO at all", label)
	}
}

// TestStageParityAllEngines runs every engine uncached and asserts the
// per-stage rows sum bit-identically to the pre-existing global counters
// — the acceptance bar for the attribution layer riding along without
// perturbing any measured quantity.
func TestStageParityAllEngines(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func(*Env, vc.Program, RunOpts) (*metrics.Report, []uint32, error)
	}{
		{"multilogvc", RunMLVC},
		{"graphchi", RunGraphChi},
		{"grafboost", RunGraFBoost},
	}
	for _, r := range runs {
		env, err := Prepare(ds, EnvOptions{CacheMB: -1})
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := r.run(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
		if err != nil {
			t.Fatal(err)
		}
		checkStageParity(t, rep, r.name)
	}
}

// TestStageParityCachedWithCheckpoints exercises the attribution layer's
// hard cases at once: a page cache (hit/miss attribution), checkpoints (IO folded into the superstep after the delta
// was taken), and a sort budget small enough to spill.
func TestStageParityCachedWithCheckpoints(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{CacheMB: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := RunMLVC(env, &apps.PageRank{}, RunOpts{
		MaxSupersteps:   6,
		CheckpointEvery: 2,
		SortBudget:      1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStageParity(t, rep, "multilogvc-cached-ckpt")
	if rep.Checkpoints == 0 {
		t.Fatal("run committed no checkpoints — scenario not exercised")
	}
	if rep.Spills == 0 {
		t.Fatal("run spilled nothing — scenario not exercised")
	}
	if metrics.StageByName(rep.Stages, "checkpoint").PagesWritten == 0 {
		t.Fatal("checkpoint stage has no writes despite committed checkpoints")
	}
	if metrics.StageByName(rep.Stages, "spill").PagesWritten == 0 {
		t.Fatal("spill stage has no writes despite spilled batches")
	}
	if metrics.StageByName(rep.Stages, "vertex").PagesRead == 0 {
		t.Fatal("vertex stage read nothing")
	}
	if metrics.StageByName(rep.Stages, "sortgroup").PagesRead == 0 {
		t.Fatal("sortgroup stage read nothing")
	}
}

// TestSuperstepIOSkewPopulated checks the straggler signal: a run with
// real traffic records a per-interval page histogram and a skew >= 1.
func TestSuperstepIOSkewPopulated(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Prepare(ds, EnvOptions{CacheMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := RunMLVC(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ss := range rep.Supersteps {
		if ss.IOSkew > 0 {
			found = true
			if ss.IOSkew < 1 {
				t.Fatalf("superstep %d: IOSkew %.3f < 1 (max/mean cannot be)", ss.Superstep, ss.IOSkew)
			}
			if ss.IntervalPages.Max() == 0 {
				t.Fatalf("superstep %d: skew set but interval histogram empty", ss.Superstep)
			}
		}
	}
	if !found {
		t.Fatal("no superstep recorded interval IO skew")
	}
}
