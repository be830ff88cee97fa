package harness

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotRoundTrip: emit -> parse -> compare must be lossless, and a
// freshly taken snapshot must diff clean against itself.
func TestSnapshotRoundTrip(t *testing.T) {
	snap, err := TakeSnapshot(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != SnapshotSchemaVersion || snap.Size != "tiny" {
		t.Fatalf("snapshot header = v%d %q", snap.SchemaVersion, snap.Size)
	}
	if len(snap.Entries) < 5 {
		t.Fatalf("suite too small: %d entries", len(snap.Entries))
	}
	for _, e := range snap.Entries {
		// The ingest entry is a mutation stream, not a superstep run.
		if e.PagesRead == 0 || (e.Supersteps == 0 && e.App != ingestApp) {
			t.Fatalf("empty entry %s: %+v", e.Key(), e)
		}
		if e.Deterministic != (e.CacheMB == 0) {
			t.Fatalf("determinism flag wrong for %s", e.Key())
		}
		// Per-stage pages must partition the entry's totals exactly.
		var pr, pw uint64
		for _, st := range e.Stages {
			pr += st.PagesRead
			pw += st.PagesWritten
		}
		if pr != e.PagesRead || pw != e.PagesWritten {
			t.Fatalf("%s: stage sums %d/%d != totals %d/%d",
				e.Key(), pr, pw, e.PagesRead, e.PagesWritten)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_tiny.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip lost data:\nout:  %+v\nback: %+v", snap, back)
	}

	d := Compare(snap, back)
	if !d.OK() || len(d.Warnings) != 0 {
		t.Fatalf("self-compare not clean: regressions=%v warnings=%v", d.Regressions, d.Warnings)
	}
}

// TestSnapshotDeterministicEntriesRepeat verifies the claim the CI gate
// rests on: deterministic (uncached) entries produce bit-identical page,
// superstep, and per-stage counters on a second run of the same suite.
func TestSnapshotDeterministicEntriesRepeat(t *testing.T) {
	a, err := TakeSnapshot(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TakeSnapshot(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i, ea := range a.Entries {
		eb := b.Entries[i]
		if ea.Key() != eb.Key() {
			t.Fatalf("entry order differs at %d: %s vs %s", i, ea.Key(), eb.Key())
		}
		if !ea.Deterministic {
			continue
		}
		if ea.PagesRead != eb.PagesRead || ea.PagesWritten != eb.PagesWritten ||
			ea.Supersteps != eb.Supersteps || ea.Spills != eb.Spills || ea.Retries != eb.Retries {
			t.Fatalf("%s: counters differ between runs:\n%+v\n%+v", ea.Key(), ea, eb)
		}
		if !reflect.DeepEqual(ea.Stages, eb.Stages) {
			t.Fatalf("%s: stage rows differ between runs:\n%+v\n%+v", ea.Key(), ea.Stages, eb.Stages)
		}
	}
	// The deterministic entries must diff clean through the gate too.
	d := Compare(a, b)
	if !d.OK() {
		t.Fatalf("repeat-run compare regressed: %v", d.Regressions)
	}
}

// TestCompareGateFires asserts the regression gate on synthetic data: a
// seeded page-count increase on a deterministic entry fails, tolerated
// nondeterministic drift stays quiet, and improvements only warn.
func TestCompareGateFires(t *testing.T) {
	base := &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Size:          "small",
		Entries: []SnapEntry{
			{Engine: "multilogvc", App: "pagerank", Graph: "cf-mini", Deterministic: true,
				Supersteps: 15, PagesRead: 1000, PagesWritten: 400,
				Stages: []StageSnap{
					{Stage: "vertex", PagesRead: 700, PagesWritten: 300},
					{Stage: "sortgroup", PagesRead: 300, PagesWritten: 100},
				}},
			{Engine: "multilogvc", App: "pagerank", Graph: "cf-mini", CacheMB: 8,
				Supersteps: 15, PagesRead: 800, PagesWritten: 400, WallNS: 1e9,
				Stages: []StageSnap{{Stage: "prefetch", PagesRead: 12}}},
		},
	}
	clone := func() *Snapshot {
		cp := *base
		cp.Entries = append([]SnapEntry(nil), base.Entries...)
		for i := range cp.Entries {
			cp.Entries[i].Stages = append([]StageSnap(nil), base.Entries[i].Stages...)
		}
		return &cp
	}

	// Identical snapshots: gate quiet.
	if d := Compare(base, clone()); !d.OK() || len(d.Warnings) != 0 {
		t.Fatalf("identical compare not clean: %+v", d)
	}

	// Seeded regression: deterministic total page count up.
	worse := clone()
	worse.Entries[0].PagesRead += 50
	d := Compare(base, worse)
	if d.OK() {
		t.Fatal("gate did not fire on deterministic page-count increase")
	}
	if !strings.Contains(strings.Join(d.Regressions, "\n"), "pages_read increased") {
		t.Fatalf("unexpected regression text: %v", d.Regressions)
	}

	// Seeded regression: a single stage's pages up, totals untouched.
	shifted := clone()
	shifted.Entries[0].Stages[1].PagesRead += 25
	if d := Compare(base, shifted); d.OK() {
		t.Fatal("gate did not fire on per-stage page increase")
	}

	// Seeded regression: one stage's virtual time off by a page write, every
	// page count equal — what a schedule-dependent eviction used to do.
	slower := clone()
	slower.Entries[0].Stages[0].TimeNS += 70_000
	if d := Compare(base, slower); d.OK() || !strings.Contains(strings.Join(d.Regressions, "\n"), "stage[vertex].time_ns") {
		t.Fatalf("gate did not fire on deterministic time_ns drift: %+v", d)
	}

	// Superstep count change is a regression in either direction.
	steps := clone()
	steps.Entries[0].Supersteps--
	if d := Compare(base, steps); d.OK() {
		t.Fatal("gate did not fire on superstep-count change")
	}

	// Nondeterministic drift within tolerance: silent.
	cachedOK := clone()
	cachedOK.Entries[1].PagesRead += 40 // +5% < 10% tolerance
	if d := Compare(base, cachedOK); !d.OK() || len(d.Warnings) != 0 {
		t.Fatalf("tolerated nondet drift not silent: %+v", d)
	}

	// Tiny absolute counts on nondeterministic entries stay quiet even at
	// huge percent drift (prefetcher warming 12 pages one run, 0 the next).
	cachedNoise := clone()
	cachedNoise.Entries[1].Stages[0].PagesRead = 0 // -100%, but below minPages
	if d := Compare(base, cachedNoise); !d.OK() || len(d.Warnings) != 0 {
		t.Fatalf("sub-floor nondet drift not silent: %+v", d)
	}

	// Nondeterministic drift beyond tolerance: warns, does not fail.
	cachedWarn := clone()
	cachedWarn.Entries[1].PagesRead += 200 // +25%
	if d := Compare(base, cachedWarn); !d.OK() || len(d.Warnings) == 0 {
		t.Fatalf("large nondet drift should warn only: %+v", d)
	}

	// Improvement on a deterministic entry: warning (stale baseline).
	better := clone()
	better.Entries[0].PagesRead -= 100
	better.Entries[0].Stages[0].PagesRead -= 100
	if d := Compare(base, better); !d.OK() || len(d.Warnings) == 0 {
		t.Fatalf("improvement should warn, not fail: %+v", d)
	}

	// Missing entry: regression. Extra entry: warning.
	missing := clone()
	missing.Entries = missing.Entries[:1]
	if d := Compare(base, missing); d.OK() {
		t.Fatal("gate did not fire on missing entry")
	}
	extra := clone()
	extra.Entries = append(extra.Entries, SnapEntry{Engine: "x", App: "y", Graph: "z"})
	if d := Compare(base, extra); !d.OK() || len(d.Warnings) == 0 {
		t.Fatalf("extra entry should warn: %+v", d)
	}

	// Schema version mismatch refuses the diff.
	vbump := clone()
	vbump.SchemaVersion++
	if d := Compare(base, vbump); d.OK() {
		t.Fatal("gate did not fire on schema version mismatch")
	}
}
