package ssd_test

// End-to-end tests of the device with a real page cache attached. These
// live in an external test package so they can use internal/pagecache
// without an import cycle (ssd only knows the PageCache interface).

import (
	"errors"
	"reflect"
	"testing"

	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

const ps = 128

func newCachedDev(t *testing.T, capacityPages int) (*ssd.Device, *pagecache.Cache) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	c := pagecache.New(capacityPages, ps)
	dev.AttachCache(c)
	return dev, c
}

func fillFile(t *testing.T, dev *ssd.Device, name string, pages int) *ssd.File {
	t.Helper()
	f, err := dev.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pages*ps)
	for pg := 0; pg < pages; pg++ {
		for i := 0; i < ps; i++ {
			buf[pg*ps+i] = byte(pg)
		}
	}
	if err := f.AppendPages(buf); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCachedReadChargesOnlyMisses checks the core accounting contract:
// the first read pays the device, the repeat read is free, and a batch
// with a partial hit charges only the missing subset.
func TestCachedReadChargesOnlyMisses(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 8)
	dev.ResetStats()

	buf := make([]byte, ps)
	if err := f.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Fatalf("read page 3: got byte %d", buf[0])
	}
	if got := dev.Stats().PagesRead; got != 1 {
		t.Fatalf("first read charged %d pages, want 1", got)
	}

	if err := f.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.PagesRead != 1 || st.BatchReads != 1 {
		t.Fatalf("repeat read charged the device: %d pages, %d batches", st.PagesRead, st.BatchReads)
	}

	// Batch of 4 with one page already resident: charge exactly 3.
	dst := make([]byte, 4*ps)
	if err := f.ReadPages([]int{2, 3, 4, 5}, dst); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().PagesRead; got != 4 {
		t.Fatalf("partial-hit batch charged %d total pages, want 4 (1 + 3 misses)", got)
	}
	for i, want := range []byte{2, 3, 4, 5} {
		if dst[i*ps] != want {
			t.Fatalf("batch slot %d: got %d, want %d", i, dst[i*ps], want)
		}
	}

	// Fully resident range read: zero device traffic.
	before := dev.Stats()
	if err := f.ReadPageRange(2, 4, dst); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.PagesRead != 0 || d.BatchReads != 0 {
		t.Fatalf("fully cached range read charged %d pages", d.PagesRead)
	}
	if hits := c.Stats().Hits; hits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

// TestWriteThroughCoherence checks that every write path refreshes the
// cached copy so cached readers never see stale data.
func TestWriteThroughCoherence(t *testing.T) {
	dev, _ := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 4)

	buf := make([]byte, ps)
	if err := f.ReadPage(1, buf); err != nil { // page 1 now cached
		t.Fatal(err)
	}
	upd := make([]byte, ps)
	for i := range upd {
		upd[i] = 0xAB
	}
	if err := f.WritePage(1, upd); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatalf("cached read returned stale data after WritePage: %x", buf[0])
	}
	if d := dev.Stats().Sub(before); d.PagesRead != 0 {
		t.Fatal("read after write-through went to the device")
	}

	// Range write over cached pages.
	if err := f.ReadPageRange(2, 2, make([]byte, 2*ps)); err != nil {
		t.Fatal(err)
	}
	upd2 := make([]byte, 2*ps)
	for i := range upd2 {
		upd2[i] = 0xCD
	}
	if err := f.WritePageRange(2, upd2); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xCD {
		t.Fatalf("cached read returned stale data after WritePageRange: %x", buf[0])
	}
}

// TestTruncateInvalidates checks that recycling a file (the mlog pattern:
// truncate between supersteps) never serves stale cached pages.
func TestTruncateInvalidates(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "log", 4)
	buf := make([]byte, ps)
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 0 {
		t.Fatalf("%d pages survived truncate", c.Resident())
	}
	// Rewrite with different content and read through a fresh path.
	upd := make([]byte, ps)
	for i := range upd {
		upd[i] = 0xEE
	}
	if _, err := f.AppendPage(upd); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Fatalf("read stale page after truncate+rewrite: %x", buf[0])
	}
}

// TestLatePutPastTruncateNeverServed: a read inserts into the cache after it
// has released the file lock, so its Put can land after a Truncate, and
// InvalidateFile(fid, pages) does not drop a frame past the page count it is
// given. The stale frame survives a second truncate and a shorter regrowth;
// every path that grows the file over it must replace its bytes before a
// read of that page is in range.
func TestLatePutPastTruncateNeverServed(t *testing.T) {
	for name, grow := range map[string]func(f *ssd.File, idx int, data []byte) error{
		"AppendPage":     func(f *ssd.File, _ int, data []byte) error { _, err := f.AppendPage(data); return err },
		"AppendPages":    func(f *ssd.File, _ int, data []byte) error { return f.AppendPages(data) },
		"WritePage":      func(f *ssd.File, idx int, data []byte) error { return f.WritePage(idx, data) },
		"WritePageRange": func(f *ssd.File, idx int, data []byte) error { return f.WritePageRange(idx, data) },
	} {
		dev, c := newCachedDev(t, 16)
		f := fillFile(t, dev, "log", 6)
		if err := f.Truncate(); err != nil {
			t.Fatal(err)
		}
		stale := make([]byte, ps)
		for i := range stale {
			stale[i] = 0x55
		}
		c.Put(f.ID(), 5, stale, false) // the read that raced the truncate
		if err := f.Truncate(); err != nil {
			t.Fatal(err)
		}
		if !c.Contains(f.ID(), 5) {
			t.Fatalf("%s: the late frame did not survive a truncate of an empty file; this test covers nothing", name)
		}
		page := make([]byte, ps)
		buf := make([]byte, ps)
		for idx := 0; idx < 6; idx++ {
			for i := range page {
				page[i] = byte(0xA0 + idx)
			}
			if err := grow(f, idx, page); err != nil {
				t.Fatalf("%s page %d: %v", name, idx, err)
			}
		}
		if err := f.ReadPage(5, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xA5 {
			t.Fatalf("%s: page 5 read %#x after regrowth, want 0xa5 (0x55 is the frame from before the truncate)", name, buf[0])
		}
		dst := make([]byte, 6*ps)
		if err := f.ReadPageRange(0, 6, dst); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < 6; idx++ {
			if dst[idx*ps] != byte(0xA0+idx) {
				t.Fatalf("%s: page %d read %#x after regrowth", name, idx, dst[idx*ps])
			}
		}
	}
}

// TestRemoveInvalidatesAndNoAliasing checks that removing a file drops its
// pages and that a new file reusing the name gets a fresh cache namespace.
func TestRemoveInvalidatesAndNoAliasing(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 2)
	if err := f.ReadPage(0, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	oldID := f.ID()
	if err := dev.Remove("data"); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 0 {
		t.Fatal("removed file's pages still resident")
	}
	g := fillFile(t, dev, "data", 2)
	if g.ID() == oldID {
		t.Fatal("recreated file reused the old cache namespace")
	}
}

// TestFaultPropagatesThroughCacheMiss checks that an injected device
// failure surfaces on the miss path, while pure cache hits — which touch
// no device — keep succeeding.
func TestFaultPropagatesThroughCacheMiss(t *testing.T) {
	dev, _ := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 8)
	buf := make([]byte, ps)
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}

	dev.SetFaults(ssd.FaultPlan{Crash: true})
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("cache hit failed under fault injection: %v", err)
	}
	if err := f.ReadPage(1, buf); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("cache miss error = %v, want ErrInjected", err)
	}
	if err := f.ReadPages([]int{0, 2}, make([]byte, 2*ps)); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("partial-hit batch error = %v, want ErrInjected", err)
	}
}

// TestUncachedPathsUnchanged guards the baseline: with no cache attached
// the device charges every page on every read, as the paper's model does.
func TestUncachedPathsUnchanged(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	f := fillFile(t, dev, "data", 4)
	dev.ResetStats()
	buf := make([]byte, ps)
	for i := 0; i < 3; i++ {
		if err := f.ReadPage(2, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Stats().PagesRead; got != 3 {
		t.Fatalf("uncached repeat reads charged %d pages, want 3", got)
	}
}

// TestZeroPlanEqualsFreshDevice: a device armed with every hazard and then
// handed the zero plan is indistinguishable from one never armed — the same
// reads, cached reads and growing writes land on the same Stats, and no
// fault, retry or no-space counter moves.
func TestZeroPlanEqualsFreshDevice(t *testing.T) {
	workload := func(dev *ssd.Device) ssd.Stats {
		f := fillFile(t, dev, "data", 8)
		buf := make([]byte, ps)
		for round := 0; round < 2; round++ { // misses, then hits
			for pg := 0; pg < 8; pg++ {
				if err := f.ReadPage(pg, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.ReadPages([]int{1, 5, 7}, make([]byte, 3*ps)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // growth past the filled extent
			if _, err := f.AppendPage(buf); err != nil {
				t.Fatal(err)
			}
		}
		return dev.Stats()
	}
	fresh, _ := newCachedDev(t, 16)
	want := workload(fresh)

	healed, _ := newCachedDev(t, 16)
	healed.SetFaults(ssd.FaultPlan{
		Seed:      9,
		Transient: ssd.Trigger{At: []int64{0, 1}, Prob: 1},
		Corrupt:   ssd.Trigger{At: []int64{0}, Prob: 1}, CorruptOnly: "data",
		NoSpace: ssd.Trigger{At: []int64{0}, Prob: 1},
		Crash:   true,
	})
	healed.SetFaults(ssd.FaultPlan{})
	got := workload(healed)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("healed device diverged from a fresh one:\n got %+v\nwant %+v", got, want)
	}
	if got.TransientFaults != 0 || got.Retries != 0 || got.RetriesExhausted != 0 || got.RetryBackoff != 0 ||
		got.CorruptPages != 0 || got.CorruptionsInjected != 0 || got.NoSpaceFaults != 0 || got.Reclaims != 0 {
		t.Fatalf("fault counters moved on a healthy device: %+v", got)
	}
	if healed.CorruptOps() != 0 {
		t.Fatalf("healed device still counts corruptible reads: %d", healed.CorruptOps())
	}
}

// TestReadOnceFileNeverTouchesCache is the stream contract: on a file declared
// read-once, batched reads, range reads, appends and Truncate leave the
// attached cache's residency and every one of its counters where they were,
// and charge the device the pages and virtual time the same calls cost with
// no cache attached at all — through a Scoped handle too, since the property
// is the file's.
func TestReadOnceFileNeverTouchesCache(t *testing.T) {
	drive := func(dev *ssd.Device) ssd.Stats {
		f, err := dev.Create("stream")
		if err != nil {
			t.Fatal(err)
		}
		f.SetReadOnce()
		f = f.Scoped(ssd.NewScope())
		page := make([]byte, 6*ps)
		for i := range page {
			page[i] = byte(i / ps)
		}
		if err := f.AppendPages(page); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 3*ps)
		for pass := 0; pass < 2; pass++ { // a repeat is as dear as the first read
			if err := f.ReadPages([]int{0, 2, 5}, dst); err != nil {
				t.Fatal(err)
			}
			if dst[0] != 0 || dst[ps] != 2 || dst[2*ps] != 5 {
				t.Fatalf("ReadPages returned pages %d, %d, %d", dst[0], dst[ps], dst[2*ps])
			}
			if err := f.ReadPageRange(1, 3, dst); err != nil {
				t.Fatal(err)
			}
			if dst[0] != 1 || dst[2*ps] != 3 {
				t.Fatalf("ReadPageRange returned pages %d..%d", dst[0], dst[2*ps])
			}
		}
		if err := f.Truncate(); err != nil {
			t.Fatal(err)
		}
		if err := f.AppendPages(page[:2*ps]); err != nil { // the generation is reused
			t.Fatal(err)
		}
		if err := f.ReadPageRange(0, 2, dst[:2*ps]); err != nil {
			t.Fatal(err)
		}
		return dev.Stats()
	}

	cached, c := newCachedDev(t, 16)
	other := fillFile(t, cached, "data", 4) // an ordinary neighbour keeps the cache busy
	buf := make([]byte, ps)
	if err := other.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	cached.ResetStats()
	resident, counters := c.Resident(), c.Stats()
	got := drive(cached)
	if c.Resident() != resident || c.Stats() != counters {
		t.Fatalf("read-once IO moved the cache: resident %d -> %d, stats %+v -> %+v", resident, c.Resident(), counters, c.Stats())
	}

	want := drive(ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4}))
	got.FilesCreated, want.FilesCreated = 0, 0 // the cached device also holds "data"
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read-once file under a cache charged\n%+v\nuncached device charged\n%+v", got, want)
	}
	if got.PagesRead != 2*6+2 || got.Stages[0].CacheMisses != 0 {
		t.Fatalf("read %d pages with %d cache misses noted, want 14 and 0", got.PagesRead, got.Stages[0].CacheMisses)
	}
}
