package ssd_test

// Stage-attribution tests: every device charge lands in exactly one
// Stats.Stages row, per-stage counters sum to the global totals, and the
// cache consult points attribute hits/misses to the issuing stage.

import (
	"testing"

	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// sumStages folds the per-stage rows back into one, for comparing against
// the global counters.
func sumStages(st ssd.Stats) ssd.StageStats {
	var out ssd.StageStats
	for _, s := range st.Stages {
		out.PagesRead += s.PagesRead
		out.PagesWritten += s.PagesWritten
		out.Time += s.Time
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
	}
	return out
}

func TestStageAttributionUncached(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	f := fillFile(t, dev, "data", 8)
	dev.ResetStats()

	buf := make([]byte, ps)
	// Untagged IO lands in StageOther.
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}

	// A tagged section attributes to its stage and interval.
	prevS, prevIv := dev.SetStage(obsv.StageSortGroup, 2)
	if prevS != obsv.StageOther || prevIv != -1 {
		t.Fatalf("initial tag = (%v, %d), want (other, -1)", prevS, prevIv)
	}
	if err := f.ReadPages([]int{1, 2, 3}, make([]byte, 3*ps)); err != nil {
		t.Fatal(err)
	}
	dev.SetStage(obsv.StageVertex, 2)
	if err := f.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	dev.SetStage(prevS, prevIv)

	st := dev.Stats()
	if got := st.Stages[obsv.StageOther]; got.PagesRead != 1 {
		t.Fatalf("other stage = %+v, want 1 page read", got)
	}
	if got := st.Stages[obsv.StageSortGroup]; got.PagesRead != 3 || got.Time == 0 {
		t.Fatalf("sortgroup stage = %+v, want 3 pages read with time", got)
	}
	if got := st.Stages[obsv.StageVertex]; got.PagesWritten != 1 {
		t.Fatalf("vertex stage = %+v, want 1 page written", got)
	}

	// The invariant the report layer depends on: stage rows sum to the
	// global counters exactly.
	sum := sumStages(st)
	if sum.PagesRead != st.PagesRead || sum.PagesWritten != st.PagesWritten {
		t.Fatalf("stage sums %d/%d != global %d/%d",
			sum.PagesRead, sum.PagesWritten, st.PagesRead, st.PagesWritten)
	}
	if sum.Time != st.StorageTime() {
		t.Fatalf("stage time sum %v != storage time %v", sum.Time, st.StorageTime())
	}

	// Interval attribution: both tagged sections named interval 2.
	if io := dev.IntervalIO(); io[2] != 4 {
		t.Fatalf("IntervalIO = %v, want 4 pages on interval 2", io)
	}

	// After restore the tag reads back as the default.
	if s, iv := dev.StageTag(); s != obsv.StageOther || iv != -1 {
		t.Fatalf("restored tag = (%v, %d)", s, iv)
	}
}

func TestStageTimeSumsWithRetryBackoff(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	f := fillFile(t, dev, "data", 4)
	dev.ResetStats()

	dev.SetStage(obsv.StageRelog, -1)
	dev.SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{0}}}) // first attempt fails, retry succeeds
	if err := f.ReadPage(0, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.RetryBackoff == 0 {
		t.Fatal("no backoff charged — injection did not fire")
	}
	if got := st.Stages[obsv.StageRelog].Time; got != st.StorageTime() {
		t.Fatalf("relog stage time %v != storage time %v (backoff not attributed)", got, st.StorageTime())
	}
}

func TestStageCacheAttribution(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 8)
	dev.ResetStats()

	dev.SetStage(obsv.StageVertex, 0)
	if err := f.ReadPages([]int{0, 1, 2}, make([]byte, 3*ps)); err != nil {
		t.Fatal(err) // 3 misses
	}
	if err := f.ReadPages([]int{1, 2, 3}, make([]byte, 3*ps)); err != nil {
		t.Fatal(err) // 2 hits, 1 miss
	}
	dev.SetStage(obsv.StageSortGroup, -1)
	buf := make([]byte, ps)
	if err := f.ReadPage(3, buf); err != nil {
		t.Fatal(err) // hit
	}
	if err := f.ReadPage(4, buf); err != nil {
		t.Fatal(err) // miss
	}
	dev.SetStage(obsv.StageOther, -1)

	st := dev.Stats()
	if v := st.Stages[obsv.StageVertex]; v.CacheHits != 2 || v.CacheMisses != 4 {
		t.Fatalf("vertex cache = %d hits / %d misses, want 2/4", v.CacheHits, v.CacheMisses)
	}
	if s := st.Stages[obsv.StageSortGroup]; s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("sortgroup cache = %d hits / %d misses, want 1/1", s.CacheHits, s.CacheMisses)
	}

	// Device-side stage counts agree with the cache's own counters.
	sum := sumStages(st)
	cs := c.Stats()
	if sum.CacheHits != cs.Hits || sum.CacheMisses != cs.Misses {
		t.Fatalf("stage cache sums %d/%d != cache stats %d/%d",
			sum.CacheHits, sum.CacheMisses, cs.Hits, cs.Misses)
	}
}
