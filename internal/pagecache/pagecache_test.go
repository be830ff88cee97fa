package pagecache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"multilogvc/internal/ssd"
)

const testPage = 64

func page(b byte) []byte {
	p := make([]byte, testPage)
	for i := range p {
		p[i] = b
	}
	return p
}

// single-shard cache for deterministic eviction order.
func newTest(capacity int) *Cache { return NewSharded(capacity, testPage, 1) }

func mustGet(t *testing.T, c *Cache, fid uint32, pg int, want byte) {
	t.Helper()
	dst := make([]byte, testPage)
	if !c.Get(fid, pg, dst) {
		t.Fatalf("page (%d,%d) not resident", fid, pg)
	}
	if !bytes.Equal(dst, page(want)) {
		t.Fatalf("page (%d,%d): got %d, want %d", fid, pg, dst[0], want)
	}
}

// TestSweepEvictionOrder drives the sweep-aware policy through scripted
// access sequences on one shard and checks exactly which pages survive.
// "sweep" announces the next sweep; "has" and "gone" check residency in
// mid-sequence; "refused" is a demand put that must fail.
func TestSweepEvictionOrder(t *testing.T) {
	type op struct {
		kind string // put, refused, get, pin, unpin, drop, sweep, has, gone
		page int
	}
	sweep := op{kind: "sweep"}
	cases := []struct {
		name      string
		capacity  int
		ops       []op
		resident  []int
		gone      []int
		evictions uint64
		pinSkips  bool
	}{
		{
			name:     "a free frame is taken before anything is evicted",
			capacity: 3,
			// Pages 0 and 2 are stale by the time page 3 arrives, but the
			// frame page 1 was dropped from is free.
			ops: []op{{"put", 0}, {"put", 1}, {"put", 2}, {"drop", 1},
				sweep, sweep, {"put", 3}},
			resident: []int{0, 2, 3},
			gone:     []int{1},
		},
		{
			name:     "a stale frame goes before a protected one",
			capacity: 3,
			// At sweep 2 page 0 (sweep 0) is stale, page 1 (last sweep) and
			// page 2 (this sweep) are protected.
			ops: []op{{"put", 0}, sweep, {"put", 1}, sweep, {"put", 2},
				{"put", 3}},
			resident:  []int{1, 2, 3},
			gone:      []int{0},
			evictions: 1,
		},
		{
			name:     "nothing stale, the newest demand insert is recycled",
			capacity: 3,
			// Pages 3 and 4 stream through the frame page 2 entered last;
			// the first fill stays put.
			ops: []op{{"put", 0}, {"put", 1}, {"put", 2}, {"put", 3},
				{"gone", 2}, {"put", 4}},
			resident:  []int{0, 1, 4},
			gone:      []int{2, 3},
			evictions: 2,
		},
		{
			name:     "a page touched last sweep survives this one and goes in the next",
			capacity: 2,
			ops: []op{{"put", 0}, {"put", 1}, sweep, {"get", 1},
				sweep, {"put", 2}, {"has", 1}, {"gone", 0},
				sweep, {"put", 3}},
			resident:  []int{2, 3},
			gone:      []int{0, 1},
			evictions: 2,
		},
		{
			name:     "a pinned stale frame is skipped and counted",
			capacity: 2,
			ops: []op{{"put", 0}, {"pin", 0}, {"put", 1}, sweep, sweep,
				{"put", 2}},
			resident:  []int{0, 2},
			gone:      []int{1},
			evictions: 1,
			pinSkips:  true,
		},
		{
			name:     "a pinned newest insert is skipped and counted",
			capacity: 2,
			// Nothing is stale and the newest insert may not be recycled, so
			// the other unpinned frame goes.
			ops:       []op{{"put", 0}, {"put", 1}, {"pin", 1}, {"put", 2}},
			resident:  []int{1, 2},
			gone:      []int{0},
			evictions: 1,
			pinSkips:  true,
		},
		{
			name:     "unpin makes the page evictable again",
			capacity: 2,
			ops: []op{{"put", 0}, {"pin", 0}, {"put", 1}, {"put", 2},
				{"has", 0}, {"unpin", 0}, sweep, sweep, {"put", 3}, {"put", 4}},
			resident:  []int{3, 4},
			gone:      []int{0, 1, 2},
			evictions: 3,
		},
		{
			name:     "every frame pinned, the insert is refused",
			capacity: 2,
			ops: []op{{"put", 0}, {"put", 1}, {"pin", 0}, {"pin", 1},
				sweep, sweep, {"refused", 2}},
			resident: []int{0, 1},
			gone:     []int{2},
			pinSkips: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTest(tc.capacity)
			for step, o := range tc.ops {
				switch o.kind {
				case "put":
					if !c.Put(1, o.page, page(byte(o.page)), false) {
						t.Fatalf("demand put of page %d refused", o.page)
					}
				case "refused":
					if c.Put(1, o.page, page(byte(o.page)), false) {
						t.Fatalf("demand put of page %d accepted", o.page)
					}
				case "get":
					mustGet(t, c, 1, o.page, byte(o.page))
				case "pin":
					if !c.Pin(1, o.page) {
						t.Fatalf("pin of page %d failed", o.page)
					}
				case "unpin":
					c.Unpin(1, o.page)
				case "drop":
					c.Invalidate(1, o.page)
				case "sweep":
					c.NextSweep()
				case "has", "gone":
					if c.Contains(1, o.page) != (o.kind == "has") {
						t.Fatalf("step %d: page %d resident = %v", step, o.page, o.kind != "has")
					}
				}
			}
			for _, pg := range tc.resident {
				if !c.Contains(1, pg) {
					t.Errorf("page %d should be resident", pg)
				}
			}
			for _, pg := range tc.gone {
				if c.Contains(1, pg) {
					t.Errorf("page %d should have been evicted", pg)
				}
			}
			st := c.Stats()
			if st.Evictions != tc.evictions {
				t.Errorf("Evictions = %d, want %d", st.Evictions, tc.evictions)
			}
			if (st.PinSkips > 0) != tc.pinSkips {
				t.Errorf("PinSkips = %d, want counted = %v", st.PinSkips, tc.pinSkips)
			}
		})
	}
}

// TestAllPinnedDemandPutFails checks the sweep guard: when every frame is
// pinned even a demand insert is refused rather than looping forever.
func TestAllPinnedDemandPutFails(t *testing.T) {
	c := newTest(2)
	c.Put(1, 0, page(0), false)
	c.Put(1, 1, page(1), false)
	c.Pin(1, 0)
	c.Pin(1, 1)
	if c.Put(1, 2, page(2), false) {
		t.Fatal("demand put succeeded with every frame pinned")
	}
	if got := c.Stats().PinSkips; got == 0 {
		t.Fatal("expected pin skips to be counted")
	}
	c.Unpin(1, 0)
	if !c.Put(1, 2, page(2), false) {
		t.Fatal("demand put still refused after unpin")
	}
}

// TestPrefetchBackpressure checks that a prefetch insert never displaces a
// pinned page or one touched this sweep or the last: it claims a free or
// stale frame, else it is dropped and counted.
func TestPrefetchBackpressure(t *testing.T) {
	c := newTest(2)
	c.Put(1, 0, page(0), false)
	c.Put(1, 1, page(1), false)
	for _, when := range []string{"this sweep", "the last sweep"} {
		if c.Put(1, 2, page(2), true) {
			t.Fatalf("prefetch evicted a page touched %s", when)
		}
		c.NextSweep()
	}
	if got := c.Stats().PrefetchDropped; got != 2 {
		t.Fatalf("PrefetchDropped = %d, want 2", got)
	}
	if !c.Contains(1, 0) || !c.Contains(1, 1) {
		t.Fatal("protected pages were disturbed by refused prefetch")
	}

	// Both pages are stale now; a hit renews page 1, so the prefetch must
	// land in page 0's frame.
	mustGet(t, c, 1, 1, 1)
	if !c.Put(1, 3, page(3), true) {
		t.Fatal("prefetch refused a stale unpinned frame")
	}
	if c.Contains(1, 0) || !c.Contains(1, 1) {
		t.Fatal("prefetch took the protected frame, not the stale one")
	}

	// Staleness does not unlock a pinned frame.
	c.Pin(1, 3)
	c.NextSweep()
	c.NextSweep()
	if !c.Put(1, 4, page(4), true) || !c.Contains(1, 3) || c.Contains(1, 1) {
		t.Fatal("prefetch should have replaced stale page 1 and left pinned page 3")
	}
	c.Pin(1, 4)
	if c.Put(1, 5, page(5), true) {
		t.Fatal("prefetch evicted a pinned page")
	}
}

// TestPrefetchAccuracy checks the prefetched→demand-hit accounting.
func TestPrefetchAccuracy(t *testing.T) {
	c := newTest(8)
	for pg := 0; pg < 4; pg++ {
		if !c.Put(1, pg, page(byte(pg)), true) {
			t.Fatalf("prefetch put %d refused on empty cache", pg)
		}
	}
	mustGet(t, c, 1, 0, 0)
	mustGet(t, c, 1, 0, 0) // second hit must not double-count
	mustGet(t, c, 1, 2, 2)
	st := c.Stats()
	if st.PrefetchInserts != 4 || st.PrefetchHits != 2 {
		t.Fatalf("inserts/hits = %d/%d, want 4/2", st.PrefetchInserts, st.PrefetchHits)
	}
	if acc := st.PrefetchAccuracy(); acc != 0.5 {
		t.Fatalf("PrefetchAccuracy = %v, want 0.5", acc)
	}
}

// TestWriteCoherence checks that Write updates resident copies in place
// and leaves non-resident pages alone.
func TestWriteCoherence(t *testing.T) {
	c := newTest(4)
	c.Put(1, 0, page(1), false)
	c.Write(1, 0, page(9))
	mustGet(t, c, 1, 0, 9)
	c.Write(1, 7, page(5)) // not resident: must not populate
	if c.Contains(1, 7) {
		t.Fatal("Write populated a non-resident page")
	}
	st := c.Stats()
	if st.Writes != 1 {
		t.Fatalf("Writes = %d, want 1", st.Writes)
	}
}

// TestInvalidateFile checks per-file invalidation across files and pins.
func TestInvalidateFile(t *testing.T) {
	c := newTest(8)
	for pg := 0; pg < 3; pg++ {
		c.Put(1, pg, page(byte(pg)), false)
		c.Put(2, pg, page(byte(pg+10)), false)
	}
	c.Pin(1, 0) // invalidation must clear pins too
	c.InvalidateFile(1, 3)
	for pg := 0; pg < 3; pg++ {
		if c.Contains(1, pg) {
			t.Fatalf("file 1 page %d survived invalidation", pg)
		}
		mustGet(t, c, 2, pg, byte(pg+10))
	}
	if got := c.Stats().Invalidations; got != 3 {
		t.Fatalf("Invalidations = %d, want 3", got)
	}
	// Five more pages fit without an eviction: two in the capacity never
	// used, three in the frames the invalidation freed. The sixth evicts.
	if !c.Put(1, 5, page(5), true) {
		t.Fatal("prefetch put refused after invalidation freed frames")
	}
	for pg := 6; pg < 10; pg++ {
		c.Put(1, pg, page(byte(pg)), false)
	}
	if st := c.Stats(); st.Evictions != 0 || c.Resident() != 8 || len(c.shards[0].free) != 0 {
		t.Fatalf("evictions %d, resident %d, free frames %d; want 0, 8 and 0",
			st.Evictions, c.Resident(), len(c.shards[0].free))
	}
	c.Put(1, 10, page(10), false)
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d after overfilling, want 1", st.Evictions)
	}
}

// invalidateFileScan is the reference InvalidateFile: walk every shard's
// whole index and drop the file's frames below pages.
func invalidateFileScan(c *Cache, fid uint32, pages int) {
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		for key, i := range s.index {
			if uint32(key>>32) == fid && int(uint32(key)) < pages {
				s.dropFrame(i)
			}
		}
		s.mu.Unlock()
	}
}

// TestInvalidateFileMatchesScan: probing a file's keys leaves the cache in
// exactly the state the whole-index scan did — same frames dropped, pins and
// prefetch marks cleared, same counters — over random residency in several
// files, whether the file is larger than what is resident (sparse, evicted)
// or the call names fewer pages than are resident (the tail survives).
func TestInvalidateFileMatchesScan(t *testing.T) {
	const files, filePages = 5, 40
	build := func() *Cache {
		c := NewSharded(96, testPage, 4) // smaller than files×filePages: evictions happen
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 600; i++ {
			fid, pg := uint32(1+rng.Intn(files)), rng.Intn(filePages)
			switch rng.Intn(5) {
			case 0:
				c.Put(fid, pg, page(byte(i)), true)
			case 1:
				c.Pin(fid, pg)
			case 2:
				c.Get(fid, pg, nil)
			default:
				c.Put(fid, pg, page(byte(i)), false)
			}
		}
		return c
	}
	got, want := build(), build()
	if got.PinnedPages() == 0 || got.Stats().PrefetchInserts == 0 || got.Stats().Evictions == 0 {
		t.Fatalf("the random fill pinned %d pages, stats %+v: the test covers nothing", got.PinnedPages(), got.Stats())
	}
	for _, call := range []struct {
		fid   uint32
		pages int
	}{
		{1, filePages},     // the whole file
		{2, 4 * filePages}, // more pages than the cache has frames: the one-pass branch
		{3, filePages / 4}, // fewer pages than are resident
		{3, filePages / 4}, // again: nothing left to drop
		{4, 0},             // an empty file
		{9, filePages},     // a file the cache never saw
		{5, filePages},
	} {
		got.InvalidateFile(call.fid, call.pages)
		invalidateFileScan(want, call.fid, call.pages)
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("InvalidateFile(%d, %d): stats %+v, the scan's %+v", call.fid, call.pages, g, w)
		}
		for si := range got.shards {
			g, w := &got.shards[si], &want.shards[si]
			if !reflect.DeepEqual(g.index, w.index) || !reflect.DeepEqual(g.frames, w.frames) {
				t.Fatalf("InvalidateFile(%d, %d): shard %d differs from the scan's", call.fid, call.pages, si)
			}
		}
	}
	if got.Contains(3, filePages/4-1) || got.Stats().Invalidations == 0 {
		t.Fatal("nothing was invalidated")
	}
	survivors := 0
	for pg := filePages / 4; pg < filePages; pg++ {
		if got.Contains(3, pg) {
			survivors++
		}
	}
	if survivors == 0 {
		t.Fatal("no page of file 3 past the named count stayed resident; the short-count case covers nothing")
	}
}

// TestStatsSub checks delta arithmetic used for per-superstep reporting.
func TestStatsSub(t *testing.T) {
	c := newTest(4)
	c.Put(1, 0, page(0), false)
	before := c.Stats()
	c.Get(1, 0, nil)
	c.Get(1, 1, nil)
	d := c.Stats().Sub(before)
	if d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("delta hits/misses = %d/%d, want 1/1", d.Hits, d.Misses)
	}
	if hr := d.HitRate(); hr != 0.5 {
		t.Fatalf("delta HitRate = %v, want 0.5", hr)
	}
}

// TestFromMB checks the CLI knob sizing and the disabled case.
func TestFromMB(t *testing.T) {
	if FromMB(0, testPage) != nil || FromMB(-3, testPage) != nil {
		t.Fatal("FromMB must return nil for mb <= 0")
	}
	c := FromMB(1, 16384)
	if got := c.CapacityPages(); got != 64 {
		t.Fatalf("1MB of 16K pages = %d frames, want 64", got)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines; run with
// -race. Correctness bar: no races, no lost frames, data read back intact.
func TestConcurrentAccess(t *testing.T) {
	c := New(64, testPage)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, testPage)
			for i := 0; i < 2000; i++ {
				pg := (w*7 + i) % 128
				fid := uint32(1 + i%3)
				switch i % 5 {
				case 0:
					c.Put(fid, pg, page(byte(pg)), i%2 == 0)
				case 1:
					if c.Get(fid, pg, dst) && dst[0] != byte(pg) {
						t.Errorf("torn read: page %d got %d", pg, dst[0])
						return
					}
				case 2:
					if c.Pin(fid, pg) {
						c.Unpin(fid, pg)
					}
				case 3:
					c.Write(fid, pg, page(byte(pg)))
				case 4:
					c.Invalidate(fid, pg)
				}
			}
		}(w)
	}
	wg.Wait()
	if r := c.Resident(); r > c.CapacityPages() {
		t.Fatalf("resident %d exceeds capacity %d", r, c.CapacityPages())
	}
}

// --- Prefetcher tests (need a real device behind the cache) ---

func newDevCache(t *testing.T, capacityPages int) (*ssd.Device, *Cache, *ssd.File) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: testPage, Channels: 4})
	c := NewSharded(capacityPages, testPage, 1)
	dev.AttachCache(c)
	f, err := dev.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32*testPage)
	for pg := 0; pg < 32; pg++ {
		copy(buf[pg*testPage:], page(byte(pg)))
	}
	if err := f.AppendPages(buf); err != nil {
		t.Fatal(err)
	}
	return dev, c, f
}

// TestPrefetcherWarmsAndPins checks the full warm→hit→release cycle: a
// prefetched page is served without device traffic and stays pinned until
// its epoch is released.
func TestPrefetcherWarmsAndPins(t *testing.T) {
	dev, c, f := newDevCache(t, 4)
	p := NewPrefetcher(8)
	defer p.Close()

	ep := p.BeginEpoch()
	p.Submit(ep, Job{File: f, Pages: []int{3, 4, 5}, Pin: true})
	p.WaitIdle()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().PagesWarmed; got != 3 {
		t.Fatalf("PagesWarmed = %d, want 3", got)
	}

	before := dev.Stats()
	dst := make([]byte, 3*testPage)
	if err := f.ReadPages([]int{3, 4, 5}, dst); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.PagesRead != 0 {
		t.Fatalf("prefetched read still hit the device: %d pages", d.PagesRead)
	}
	if dst[0] != 3 || dst[testPage] != 4 || dst[2*testPage] != 5 {
		t.Fatal("prefetched pages returned wrong data")
	}
	st := c.Stats()
	if st.PrefetchHits != 3 {
		t.Fatalf("PrefetchHits = %d, want 3", st.PrefetchHits)
	}

	// While the epoch is live the pinned pages must survive cache pressure.
	for pg := 10; pg < 20; pg++ {
		c.Put(f.ID(), pg, page(byte(pg)), false)
	}
	for _, pg := range []int{3, 4, 5} {
		if !c.Contains(f.ID(), pg) {
			t.Fatalf("pinned page %d evicted while epoch live", pg)
		}
	}
	// Released, the pages are ordinary frames again: protected while their
	// last touch is recent, evicted once two sweeps have passed.
	p.ReleaseEpoch(ep)
	RequireNoPins(t, c)
	c.NextSweep()
	c.NextSweep()
	for pg := 20; pg < 30; pg++ {
		c.Put(f.ID(), pg, page(byte(pg)), false)
	}
	for _, pg := range []int{3, 4, 5} {
		if c.Contains(f.ID(), pg) {
			t.Fatalf("released page %d survived two sweeps of pressure — pins leaked", pg)
		}
	}
}

// TestPrefetcherExpand checks two-stage jobs: the follow-up pages computed
// by Expand are warmed under the same epoch.
func TestPrefetcherExpand(t *testing.T) {
	_, c, f := newDevCache(t, 8)
	p := NewPrefetcher(8)
	defer p.Close()

	ep := p.BeginEpoch()
	p.Submit(ep, Job{
		File:  f,
		Pages: []int{0},
		Expand: func() ([]Job, error) {
			return []Job{{File: f, Pages: []int{6, 7}}}, nil
		},
	})
	p.WaitIdle()
	for _, pg := range []int{0, 6, 7} {
		if !c.Contains(f.ID(), pg) {
			t.Fatalf("page %d not warmed", pg)
		}
	}
	if got := p.Stats().Jobs; got != 2 {
		t.Fatalf("Jobs = %d, want 2 (parent + expansion)", got)
	}
}

// TestPrefetcherCancel checks that a generation bump skips queued jobs.
func TestPrefetcherCancel(t *testing.T) {
	_, c, f := newDevCache(t, 8)
	p := NewPrefetcher(8)
	defer p.Close()

	// Block the worker with a job whose Expand waits, then queue work and
	// cancel it before the worker can get there.
	started := make(chan struct{})
	release := make(chan struct{})
	ep := p.BeginEpoch()
	p.Submit(ep, Job{Expand: func() ([]Job, error) {
		close(started)
		<-release
		return nil, nil
	}})
	<-started // ensure the blocking job is being processed, not queued
	p.Submit(ep, Job{File: f, Pages: []int{1, 2}})
	p.CancelPending()
	close(release)
	p.WaitIdle()
	if c.Contains(f.ID(), 1) || c.Contains(f.ID(), 2) {
		t.Fatal("cancelled job still warmed pages")
	}
	if got := p.Stats().Skipped; got != 1 {
		t.Fatalf("Skipped = %d, want 1", got)
	}
}

// TestPrefetcherQueueFull checks that Submit never blocks: overflow jobs
// are dropped and counted.
func TestPrefetcherQueueFull(t *testing.T) {
	_, _, f := newDevCache(t, 8)
	p := NewPrefetcher(1)
	defer p.Close()

	release := make(chan struct{})
	ep := p.BeginEpoch()
	p.Submit(ep, Job{Expand: func() ([]Job, error) { <-release; return nil, nil }})
	for i := 0; i < 10; i++ {
		p.Submit(ep, Job{File: f, Pages: []int{i % 8}})
	}
	close(release)
	p.WaitIdle()
	st := p.Stats()
	if st.Dropped == 0 {
		t.Fatal("expected overflow jobs to be dropped")
	}
	if st.Submitted+st.Dropped != 11 {
		t.Fatalf("submitted %d + dropped %d != 11", st.Submitted, st.Dropped)
	}
}

// TestPrefetcherDeviceError checks that injected device failures during
// background prefetch are recorded, not panicked, and the prefetcher keeps
// serving later jobs.
func TestPrefetcherDeviceError(t *testing.T) {
	dev, _, f := newDevCache(t, 8)
	p := NewPrefetcher(8)
	defer p.Close()

	dev.SetFaults(ssd.FaultPlan{Crash: true})
	ep := p.BeginEpoch()
	p.Submit(ep, Job{File: f, Pages: []int{1, 2, 3}, Pin: true})
	p.WaitIdle()
	if err := p.Err(); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("Err = %v, want ErrInjected", err)
	}
	if got := p.Stats().Errors; got != 1 {
		t.Fatalf("Errors = %d, want 1", got)
	}

	dev.SetFaults(ssd.FaultPlan{})
	p.Submit(ep, Job{File: f, Pages: []int{4}})
	p.WaitIdle()
	if got := p.Stats().PagesWarmed; got != 1 {
		t.Fatalf("prefetcher did not recover after fault cleared: warmed %d", got)
	}
	p.ReleaseEpoch(ep)
}

// TestPrefetcherLateEpochRelease checks the race where the consuming batch
// releases its epoch before the prefetch lands: late pins must be undone
// immediately so nothing stays pinned forever.
func TestPrefetcherLateEpochRelease(t *testing.T) {
	_, c, f := newDevCache(t, 2)
	p := NewPrefetcher(8)
	defer p.Close()

	gate := make(chan struct{})
	ep := p.BeginEpoch()
	p.Submit(ep, Job{
		Expand: func() ([]Job, error) {
			<-gate // hold the worker until after the release
			return []Job{{File: f, Pages: []int{1}, Pin: true}}, nil
		},
	})
	p.ReleaseEpoch(ep)
	close(gate)
	p.WaitIdle()

	// The page may be resident, but it must not be pinned: once it is
	// stale, two demand inserts must be able to claim both frames.
	RequireNoPins(t, c)
	c.NextSweep()
	c.NextSweep()
	c.Put(f.ID(), 10, page(10), false)
	c.Put(f.ID(), 11, page(11), false)
	if !c.Contains(f.ID(), 10) || !c.Contains(f.ID(), 11) {
		t.Fatal("late pin was never released")
	}
}

// TestShardDistribution sanity-checks that multi-shard capacity is fully
// usable: N distinct pages fit into an N-frame sharded cache within a
// small slack (hash skew can overflow individual shards).
func TestShardDistribution(t *testing.T) {
	const frames = 64
	c := NewSharded(frames, testPage, DefaultShards)
	for pg := 0; pg < frames; pg++ {
		c.Put(7, pg, page(byte(pg)), false)
	}
	if r := c.Resident(); r < frames*3/4 {
		t.Fatalf("only %d of %d frames used — shard hash badly skewed", r, frames)
	}
}

func BenchmarkPageCache(b *testing.B) {
	for _, hitPct := range []int{50, 90, 100} {
		b.Run(fmt.Sprintf("hit%d", hitPct), func(b *testing.B) {
			const pages = 256
			c := New(pages, 4096)
			data := make([]byte, 4096)
			for pg := 0; pg < pages; pg++ {
				c.Put(1, pg, data, false)
			}
			dst := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				span := pages * 100 / hitPct
				pg := i % span
				if !c.Get(1, pg, dst) {
					c.Put(1, pg, data, false)
				}
			}
		})
	}
	// loop is the superstep shape: a cyclic scan of 2,300 pages through
	// 1,024 frames, a sweep announced at every wrap. ns/op is the price of
	// the policy's miss path (6 in 10 accesses miss), hit% what it buys; a
	// recency policy scores 0 here.
	b.Run("loop", func(b *testing.B) {
		const frames, span = 1024, 2300
		c := New(frames, 4096)
		data := make([]byte, 4096)
		dst := make([]byte, 4096)
		hits := 0
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pg := i % span
			if pg == 0 {
				c.NextSweep()
			}
			if c.Get(1, pg, dst) {
				hits++
			} else {
				c.Put(1, pg, data, false)
			}
		}
		b.ReportMetric(100*float64(hits)/float64(b.N), "hit%")
	})
}

// BenchmarkInvalidateFile: dropping a resident 8-page file from a full cache
// of 16 Ki frames (mlvcd's default 64 MiB of 4 KiB pages) — what every
// scratch truncate and remove of a serving run pays. ns/page is the number to
// read: it times the invalidations alone (ns/op includes re-inserting the
// file's pages).
func BenchmarkInvalidateFile(b *testing.B) {
	const frames, filePages = 16 << 10, 8
	c := New(frames, testPage)
	data := page(1)
	for pg := 0; pg < frames; pg++ {
		c.Put(1, pg, data, false)
	}
	var spent time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fid := uint32(2 + i)
		for pg := 0; pg < filePages; pg++ {
			c.Put(fid, pg, data, false)
		}
		start := time.Now()
		c.InvalidateFile(fid, filePages)
		spent += time.Since(start)
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*filePages), "ns/page")
}
