package harness

import (
	"path/filepath"
	"reflect"
	"slices"
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
// rests on: every entry, the cached one included, produces bit-identical
// page, superstep, storage-time and per-stage counters on a second run of
// the same suite.
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
	cached := 0
	for i, ea := range a.Entries {
		eb := b.Entries[i]
		if ea.Key() != eb.Key() {
			t.Fatalf("entry order differs at %d: %s vs %s", i, ea.Key(), eb.Key())
		}
		if ea.CacheMB > 0 {
			cached++
		}
		if ea.PagesRead != eb.PagesRead || ea.PagesWritten != eb.PagesWritten || ea.StorageNS != eb.StorageNS ||
			ea.Supersteps != eb.Supersteps || ea.Spills != eb.Spills || ea.Retries != eb.Retries {
			t.Fatalf("%s: counters differ between runs:\n%+v\n%+v", ea.Key(), ea, eb)
		}
		if !reflect.DeepEqual(ea.Stages, eb.Stages) {
			t.Fatalf("%s: stage rows differ between runs:\n%+v\n%+v", ea.Key(), ea.Stages, eb.Stages)
		}
	}
	if cached == 0 {
		t.Fatal("the suite has no cached entry")
	}
	// The entries must diff clean through the gate too.
	d := Compare(a, b)
	if !d.OK() {
		t.Fatalf("repeat-run compare regressed: %v", d.Regressions)
	}
}

// TestCompareGateFires asserts the regression gate on synthetic data: a
// seeded page-count or virtual-time increase on any entry, cached or not,
// fails, and improvements only warn.
func TestCompareGateFires(t *testing.T) {
	base := &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Size:          "small",
		Entries: []SnapEntry{
			{Engine: "multilogvc", App: "pagerank", Graph: "cf-mini",
				Supersteps: 15, PagesRead: 1000, PagesWritten: 400,
				Stages: []StageSnap{
					{Stage: "vertex", PagesRead: 700, PagesWritten: 300},
					{Stage: "sortgroup", PagesRead: 300, PagesWritten: 100},
				}},
			{Engine: "multilogvc", App: "pagerank", Graph: "cf-mini", CacheMB: 8,
				Supersteps: 15, PagesRead: 800, PagesWritten: 400, StorageNS: 5e7, WallNS: 1e9,
				Stages: []StageSnap{{Stage: "vertex", PagesRead: 12}}},
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

	// Seeded regression: total page count up.
	worse := clone()
	worse.Entries[0].PagesRead += 50
	d := Compare(base, worse)
	if d.OK() {
		t.Fatal("gate did not fire on page-count increase")
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
		t.Fatalf("gate did not fire on time_ns drift: %+v", d)
	}

	// Superstep count change is a regression in either direction.
	steps := clone()
	steps.Entries[0].Supersteps--
	if d := Compare(base, steps); d.OK() {
		t.Fatal("gate did not fire on superstep-count change")
	}

	// The cached entry is gated exactly like the others: one page more on
	// one stage, or one virtual nanosecond, fails.
	cachedPage := clone()
	cachedPage.Entries[1].Stages[0].PagesRead++
	if d := Compare(base, cachedPage); d.OK() {
		t.Fatal("gate did not fire on a cached entry's stage page increase")
	}
	cachedTime := clone()
	cachedTime.Entries[1].StorageNS++
	if d := Compare(base, cachedTime); d.OK() || !strings.Contains(strings.Join(d.Regressions, "\n"), "storage_ns") {
		t.Fatalf("gate did not fire on a cached entry's storage_ns drift: %+v", d)
	}

	// Improvement: warning (stale baseline).
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

// gated zeroes what the gate never compares: the host times and the cache
// hit ratio.
func gated(e SnapEntry) SnapEntry {
	e.ComputeNS, e.WallNS, e.CacheHitRate = 0, 0, 0
	return e
}

// checkPinned fails for every entry of fresh that differs from base's
// entry of the same key in any gated field, and for every key one side
// has and the other lacks.
func checkPinned(t *testing.T, base, fresh *Snapshot) {
	t.Helper()
	committed := map[string]SnapEntry{}
	for _, b := range base.Entries {
		committed[b.Key()] = b
	}
	for _, f := range fresh.Entries {
		b, ok := committed[f.Key()]
		if !ok {
			t.Errorf("%s: not in the committed snapshot", f.Key())
			continue
		}
		delete(committed, f.Key())
		bv, fv := reflect.ValueOf(gated(b)), reflect.ValueOf(gated(f))
		for i := 0; i < bv.NumField(); i++ {
			if !reflect.DeepEqual(bv.Field(i).Interface(), fv.Field(i).Interface()) {
				t.Errorf("%s: %s moved: committed %v, fresh %v", f.Key(), bv.Type().Field(i).Name, bv.Field(i), fv.Field(i))
			}
		}
	}
	for key := range committed {
		t.Errorf("%s: committed but not run", key)
	}
}

// TestSnapshotStoreParity: virtual time and page counts belong to the
// device model, not to the store behind it. The gate's own runs and the
// ingest shape (not the experiments' runs) on file-backed devices must
// reproduce their entries of the committed BENCH_small.json in every field
// the gate holds: pages, supersteps, spills, retries, storage time, every
// stage's pages and time, and the table counters.
func TestSnapshotStoreParity(t *testing.T) {
	base, err := LoadSnapshot(filepath.Join("..", "..", "BENCH_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Small)
	r.dir = t.TempDir()
	fresh, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Entries) != len(gateRuns)+1 {
		t.Fatalf("%d entries on files, want the gate's %d runs and the ingest shape", len(fresh.Entries), len(gateRuns))
	}
	keys := map[string]bool{}
	for _, f := range fresh.Entries {
		keys[f.Key()] = true
	}
	gate := *base
	gate.Entries = slices.DeleteFunc(slices.Clone(base.Entries), func(b SnapEntry) bool { return !keys[b.Key()] })
	checkPinned(t, &gate, fresh)
}

// TestSnapshotTinyPinned pins every table's runs at tiny: a fresh snapshot
// must reproduce the committed BENCH_tiny.json in every gated field of
// every entry, so any cell of any table that moves fails here by key.
// Regenerate the file with
//
//	go run ./cmd/mlvc-bench -size tiny -snapshot BENCH_tiny.json
func TestSnapshotTinyPinned(t *testing.T) {
	base, err := LoadSnapshot(filepath.Join("..", "..", "BENCH_tiny.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := TakeSnapshot(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if base.SchemaVersion != fresh.SchemaVersion || base.Size != fresh.Size {
		t.Fatalf("committed v%d %q, fresh v%d %q", base.SchemaVersion, base.Size, fresh.SchemaVersion, fresh.Size)
	}
	checkPinned(t, base, fresh)
}

// TestRegistryRunsEachKeyOnce: every table of -exp all reads one set of
// runs. At tiny the 16 tables ask for 144 runs, of which 100 are distinct,
// and the registry executes exactly those 100.
func TestRegistryRunsEachKeyOnce(t *testing.T) {
	r := NewRegistry(Tiny)
	for _, e := range Experiments {
		if _, err := r.Table(e, 0); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	if n := len(r.Records()); n != 100 {
		t.Fatalf("-exp all executed %d runs, want 100", n)
	}
}
