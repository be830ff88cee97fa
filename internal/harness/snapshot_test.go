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

// TestSnapshotStoreParity: virtual time and page counts belong to the
// device model, not to the store behind it. The snapshot suite run on
// file-backed devices must reproduce every entry of the committed
// BENCH_small.json bit for bit in everything the gate holds: pages,
// supersteps, spills, retries, storage time and every stage's pages and
// time. The host times and the cache hit ratio, which the gate does not
// hold, are left out.
func TestSnapshotStoreParity(t *testing.T) {
	base, err := LoadSnapshot(filepath.Join("..", "..", "BENCH_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := takeSnapshot(Small, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Entries) != len(base.Entries) {
		t.Fatalf("%d entries on files, %d committed", len(fresh.Entries), len(base.Entries))
	}
	for i, b := range base.Entries {
		f := fresh.Entries[i]
		b.ComputeNS, b.WallNS, b.CacheHitRate = 0, 0, 0
		f.ComputeNS, f.WallNS, f.CacheHitRate = 0, 0, 0
		if !reflect.DeepEqual(b, f) {
			t.Errorf("%s differs on files:\ncommitted: %+v\nfiles:     %+v", b.Key(), b, f)
		}
	}
}
