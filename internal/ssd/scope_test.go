package ssd_test

// IOScope tests: per-run stage tags, mirrored counters, and run contexts.
// The concurrency test is the contract the serving daemon depends on — two
// engine runs over one device must each see exactly their own IO in their
// scope, with their own stage attribution, regardless of interleaving.
// Run with -race.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

func TestScopedStageAttributionConcurrent(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	f := fillFile(t, dev, "shared", 64)
	dev.ResetStats()

	const runs = 4
	const reads = 200
	// Each run tags a distinct stage and reads through its own scoped view
	// of the same file, concurrently.
	stages := []obsv.Stage{obsv.StageVertex, obsv.StageSortGroup, obsv.StageRelog, obsv.StageCheckpoint}
	scopes := make([]*ssd.IOScope, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		sc := ssd.NewScope()
		scopes[r] = sc
		fr := f.Scoped(sc)
		wg.Add(1)
		go func(r int, sc *ssd.IOScope, fr *ssd.File) {
			defer wg.Done()
			buf := make([]byte, ps)
			sc.SetStage(stages[r], r)
			for i := 0; i < reads; i++ {
				if err := fr.ReadPage((r*17+i)%64, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(r, sc, fr)
	}
	wg.Wait()

	for r, sc := range scopes {
		st := sc.Stats()
		if st.PagesRead != reads {
			t.Fatalf("run %d scope read %d pages, want %d", r, st.PagesRead, reads)
		}
		// All of the run's IO landed in its own stage — none leaked into a
		// stage another concurrent run was tagging.
		if got := st.Stages[stages[r]].PagesRead; got != reads {
			t.Fatalf("run %d attributed %d/%d pages to its stage", r, got, reads)
		}
		for i := range st.Stages {
			if obsv.Stage(i) != stages[r] && st.Stages[i].PagesRead != 0 {
				t.Fatalf("run %d leaked %d pages into stage %d", r, st.Stages[i].PagesRead, i)
			}
		}
		// Interval attribution is per-scope too.
		if io := sc.IntervalIO(); io[r] != reads {
			t.Fatalf("run %d IntervalIO = %v, want %d pages on interval %d", r, io, reads, r)
		}
	}

	// The device-global stats still aggregate every scope exactly.
	st := dev.Stats()
	if st.PagesRead != runs*reads {
		t.Fatalf("device read %d pages, want %d", st.PagesRead, runs*reads)
	}
	sum := sumStages(st)
	if sum.PagesRead != st.PagesRead || sum.Time != st.StorageTime() {
		t.Fatalf("stage sums %d/%v != global %d/%v", sum.PagesRead, sum.Time, st.PagesRead, st.StorageTime())
	}
}

// TestScopedTagIndependentOfDevice: a scope's tag moves only its own
// handles' IO. The unscoped handle of the same file stays untagged and its
// IO reaches the device totals but no scope.
func TestScopedTagIndependentOfDevice(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	f := fillFile(t, dev, "data", 8)
	dev.ResetStats()

	sc, other := ssd.NewScope(), ssd.NewScope()
	fs := f.Scoped(sc)
	sc.SetStage(obsv.StageVertex, 1)
	other.SetStage(obsv.StageSpill, 7) // a concurrent run's tag

	buf := make([]byte, ps)
	if err := fs.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}

	st := dev.Stats()
	if st.Stages[obsv.StageVertex].PagesRead != 1 || st.Stages[obsv.StageOther].PagesRead != 1 || st.Stages[obsv.StageSpill].PagesRead != 0 {
		t.Fatalf("stage split = vertex:%d other:%d spill:%d, want 1/1/0",
			st.Stages[obsv.StageVertex].PagesRead, st.Stages[obsv.StageOther].PagesRead, st.Stages[obsv.StageSpill].PagesRead)
	}
	// The scope saw only the scoped handle's read, the other scope nothing.
	if ss := sc.Stats(); ss.PagesRead != 1 || ss.Stages[obsv.StageVertex].PagesRead != 1 {
		t.Fatalf("scope stats = %d pages (vertex %d), want 1/1", ss.PagesRead, ss.Stages[obsv.StageVertex].PagesRead)
	}
	if os := other.Stats(); os.PagesRead != 0 {
		t.Fatalf("idle scope read %d pages", os.PagesRead)
	}
	// Writes resolve the scope tag too, and a handle opened through a scoped
	// device handle is bound to that scope.
	fd, err := dev.Scoped(sc).OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.WritePageRange(0, buf); err != nil {
		t.Fatal(err)
	}
	if got := sc.Stats().Stages[obsv.StageVertex].PagesWritten; got != 1 {
		t.Fatalf("scoped write attributed %d pages to vertex stage, want 1", got)
	}
}

func TestScopedRunContextIsolation(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4, Retry: ssd.RetryPolicy{MaxRetries: 3}})
	f := fillFile(t, dev, "data", 4)
	dev.ResetStats()

	scA := ssd.NewScope()
	scB := ssd.NewScope()
	ctxA, cancelA := context.WithCancel(context.Background())
	scA.SetRunContext(ctxA)
	scB.SetRunContext(context.Background())
	cancelA() // run A's deadline fires

	fa, fb := f.Scoped(scA), f.Scoped(scB)
	buf := make([]byte, ps)

	// Run A's transient retry is abandoned on its canceled context...
	dev.SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{0}}})
	if err := fa.ReadPage(0, buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled scope read error = %v, want context.Canceled", err)
	}
	// ...while run B, on the same device at the same time, retries through
	// its transient fault and succeeds.
	dev.SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{0}}})
	if err := fb.ReadPage(0, buf); err != nil {
		t.Fatalf("live scope read failed: %v", err)
	}
	if got := scB.Stats().Retries; got == 0 {
		t.Fatal("live scope recorded no retries — fault injection did not fire")
	}
}

// TestScopeCountsEveryFault: checksum failures, exhausted retry budgets,
// no-space faults and the reclaim sweeps they trigger are charged to the
// scope whose IO met them, exactly as to the device — a run's report reads
// them from its scope.
func TestScopeCountsEveryFault(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4, Retry: ssd.RetryPolicy{MaxRetries: 1}})
	fillFile(t, dev, "data", 4)
	dev.AddReclaimer(func() {})
	if err := dev.CorruptStoredPage("data", 2); err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	sc := ssd.NewScope()
	f, err := dev.Scoped(sc).OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, ps)
	if err := f.ReadPage(2, buf); !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("corrupt read error = %v", err)
	}
	dev.SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{0, 1}}})
	if err := f.ReadPage(0, buf); !errors.Is(err, ssd.ErrRetriesExhausted) {
		t.Fatalf("exhausted read error = %v", err)
	}
	dev.SetFaults(ssd.FaultPlan{NoSpace: ssd.Trigger{At: []int64{0}}})
	if _, err := f.AppendPage(buf); err != nil {
		t.Fatalf("append after one reclaim: %v", err)
	}

	st := sc.Stats()
	if st.CorruptPages != 1 || st.TransientFaults != 2 || st.Retries != 1 || st.RetriesExhausted != 1 ||
		st.NoSpaceFaults != 1 || st.Reclaims != 1 {
		t.Fatalf("scope counted corrupt %d, transient %d, retries %d, exhausted %d, no-space %d, reclaims %d; want 1/2/1/1/1/1",
			st.CorruptPages, st.TransientFaults, st.Retries, st.RetriesExhausted, st.NoSpaceFaults, st.Reclaims)
	}
	dst := dev.Stats()
	if dst.CorruptPages != st.CorruptPages || dst.RetriesExhausted != st.RetriesExhausted ||
		dst.NoSpaceFaults != st.NoSpaceFaults || dst.Reclaims != st.Reclaims || dst.StorageTime() != st.StorageTime() {
		t.Fatal("device and scope disagree about the same faults")
	}
}
