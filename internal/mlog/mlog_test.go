package mlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

func testLog(t *testing.T, intervals int, budget int64) (*Log, *ssd.Device) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 120, Channels: 4}) // 10 records per page
	l, err := New(dev, "log", intervals, budget)
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, _ := testLog(t, 3, 1<<20)
	for i := uint32(0); i < 100; i++ {
		if err := l.Append(int(i%3), i, i+1, i+2); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if l.Total() != 100 {
		t.Fatalf("Total = %d", l.Total())
	}
	seen := 0
	for iv := 0; iv < 3; iv++ {
		if err := l.Read(iv, func(dst, src, data uint32) {
			if src != dst+1 || data != dst+2 {
				t.Fatalf("record corrupted: %d %d %d", dst, src, data)
			}
			if int(dst%3) != iv {
				t.Fatalf("record %d in wrong log %d", dst, iv)
			}
			seen++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 100 {
		t.Fatalf("read %d records, want 100", seen)
	}
}

func TestCounts(t *testing.T) {
	l, _ := testLog(t, 2, 1<<20)
	for i := 0; i < 7; i++ {
		l.Append(0, 1, 2, 3)
	}
	for i := 0; i < 5; i++ {
		l.Append(1, 1, 2, 3)
	}
	if l.Count(0) != 7 || l.Count(1) != 5 {
		t.Fatalf("counts = %d, %d", l.Count(0), l.Count(1))
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// Tiny budget: full pages must be evicted to the device mid-stream.
	l, dev := testLog(t, 2, 1)
	before := dev.Stats().PagesWritten
	for i := uint32(0); i < 200; i++ {
		if err := l.Append(int(i%2), i, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Stats().PagesWritten == before {
		t.Fatal("no eviction happened despite tiny budget")
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for iv := 0; iv < 2; iv++ {
		l.Read(iv, func(dst, src, data uint32) { seen++ })
	}
	if seen != 200 {
		t.Fatalf("read %d records after eviction, want 200", seen)
	}
}

func TestResetAll(t *testing.T) {
	l, _ := testLog(t, 2, 1<<20)
	for i := 0; i < 50; i++ {
		l.Append(i%2, uint32(i), 0, 0)
	}
	l.FlushAll()
	if err := l.ResetAll(); err != nil {
		t.Fatal(err)
	}
	if l.Total() != 0 || l.Count(0) != 0 {
		t.Fatal("counters not reset")
	}
	seen := 0
	l.Read(0, func(dst, src, data uint32) { seen++ })
	if seen != 0 {
		t.Fatalf("read %d records after reset", seen)
	}
	// Reusable after reset.
	l.Append(0, 9, 9, 9)
	l.FlushAll()
	got := uint32(0)
	l.Read(0, func(dst, src, data uint32) { got = dst })
	if got != 9 {
		t.Fatal("log not reusable after reset")
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := testLog(t, 4, 2048)
	var wg sync.WaitGroup
	const goroutines = 8
	const per = 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append((g+i)%4, uint32(g), uint32(i), 7); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if l.Total() != goroutines*per {
		t.Fatalf("Total = %d, want %d", l.Total(), goroutines*per)
	}
	seen := uint64(0)
	for iv := 0; iv < 4; iv++ {
		l.Read(iv, func(dst, src, data uint32) {
			if data != 7 {
				t.Errorf("corrupted record data %d", data)
			}
			seen++
		})
	}
	if seen != goroutines*per {
		t.Fatalf("read %d records, want %d", seen, goroutines*per)
	}
}

// TestReclaimConcurrentWithAppend is the contract the Log's mutex exists
// for: while the single writer appends to (and evicts) the intervals still
// ahead of it, a device reclaimer on another goroutine marks and truncates
// the intervals already read.
func TestReclaimConcurrentWithAppend(t *testing.T) {
	l, _ := testLog(t, 4, 1) // floor budget: appends evict all along
	for i := uint32(0); i < 100; i++ {
		if err := l.Append(int(i%2), i, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for iv := 0; iv < 2; iv++ {
		if err := l.Read(iv, func(uint32, uint32, uint32) {}); err != nil {
			t.Fatal(err)
		}
	}

	const appends = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			l.MarkConsumed(0, 1)
			if err := l.ReclaimConsumed(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := uint32(0); i < appends; i++ {
		if err := l.Append(2+int(i%2), i, 0, 7); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	if l.Count(0) != 0 || l.Count(1) != 0 || l.Total() != appends {
		t.Fatalf("counts after reclaim = %d, %d, total %d; want 0, 0, %d", l.Count(0), l.Count(1), l.Total(), appends)
	}
	if f := l.files[0]; f != nil && f.DataPages() != 0 {
		t.Fatal("reclaimed interval still has pages on the device")
	}
	seen := 0
	for iv := 0; iv < 4; iv++ {
		if err := l.Read(iv, func(dst, src, data uint32) {
			if data != 7 {
				t.Errorf("interval %d: record %d survived reclaim or is corrupt", iv, dst)
			}
			seen++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if seen != appends {
		t.Fatalf("read %d records, want %d", seen, appends)
	}
}

func TestNewValidation(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 8, Channels: 1}) // < record size
	if _, err := New(dev, "l", 1, 100); err == nil {
		t.Fatal("page smaller than record should fail")
	}
	dev2 := ssd.MustOpen(ssd.Config{PageSize: 120, Channels: 1})
	if _, err := New(dev2, "l", 0, 100); err == nil {
		t.Fatal("zero intervals should fail")
	}
}

func TestReadEmptyInterval(t *testing.T) {
	l, _ := testLog(t, 2, 1<<20)
	called := false
	if err := l.Read(1, func(uint32, uint32, uint32) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("callback on empty log")
	}
}

// testWidth is the number of vertices in each interval of testIndex.
const testWidth = 1000

// testIndex maps the vertices of intervals intervals of testWidth each.
func testIndex(intervals int) *csr.IntervalIndex {
	ivs := make([]csr.Interval, intervals)
	for i := range ivs {
		ivs[i] = csr.Interval{Lo: uint32(i) * testWidth, Hi: uint32(i+1) * testWidth}
	}
	return csr.NewIntervalIndex(ivs, uint32(intervals)*testWidth)
}

// testStream is a seeded record stream over the intervals of a Log: ivs[i]
// is the testIndex interval of recs[i]'s destination.
func testStream(n, intervals int, seed int64) ([]int32, []vc.Msg) {
	rng := rand.New(rand.NewSource(seed))
	ivs, recs := make([]int32, n), make([]vc.Msg, n)
	for i := range recs {
		ivs[i] = int32(rng.Intn(intervals))
		dst := uint32(ivs[i])*testWidth + uint32(rng.Intn(testWidth))
		recs[i] = vc.Msg{Dst: dst, Src: uint32(i), Data: rng.Uint32()}
	}
	return ivs, recs
}

// filePages returns the raw device pages of every interval log file.
func filePages(t *testing.T, dev *ssd.Device, intervals int) [][]byte {
	t.Helper()
	out := make([][]byte, intervals)
	for iv := range out {
		name := fmt.Sprintf("log.%d", iv)
		if !dev.Exists(name) {
			continue
		}
		f, err := dev.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[iv] = make([]byte, f.NumPages()*dev.PageSize())
		if err := f.ReadPageRange(0, f.NumPages(), out[iv]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestAppendRecsMatchesAppend is the bulk append's contract: fed the same
// sequence, with a budget that forces evictions in the middle of runs, it
// leaves the device exactly where one Append per record does — the same
// pages written after every run (so each eviction fired at the same record),
// the same virtual time, the same counts, byte-identical log files. A second
// generation over recycled pages must in turn match a Log that never had a
// first: nothing of a page's earlier life reaches the device.
func TestAppendRecsMatchesAppend(t *testing.T) {
	const intervals, n = 5, 6000
	budget := int64((intervals + 3) * 120) // three pages over the floor
	one, devOne := testLog(t, intervals, budget)
	bulk, devBulk := testLog(t, intervals, budget)
	fresh, devFresh := testLog(t, intervals, budget)
	idx := testIndex(intervals)

	for gen, seed := range []int64{1, 2} {
		ivs, recs := testStream(n, intervals, seed)
		rng := rand.New(rand.NewSource(seed))
		for start := 0; start < n; {
			end := min(start+1+rng.Intn(400), n) // most runs span several evictions
			for i := start; i < end; i++ {
				if err := one.Append(int(ivs[i]), recs[i].Dst, recs[i].Src, recs[i].Data); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bulk.AppendRecs(idx, 0, intervals-1, recs[start:end]); err != nil {
				t.Fatal(err)
			}
			if a, b := devOne.Stats(), devBulk.Stats(); a != b {
				t.Fatalf("gen %d, after record %d: device stats differ\none:  %+v\nbulk: %+v", gen, end, a, b)
			}
			start = end
		}
		if gen == 1 {
			if _, err := fresh.AppendRecs(idx, 0, intervals-1, recs); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range []*Log{one, bulk, fresh} {
			if err := l.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		if devOne.Stats().PagesWritten <= uint64(intervals) {
			t.Fatal("the budget forced no eviction")
		}
		if a, b := devOne.Stats(), devBulk.Stats(); a != b || a.StorageTime() != b.StorageTime() {
			t.Fatalf("gen %d: device stats differ after FlushAll\none:  %+v\nbulk: %+v", gen, a, b)
		}
		for iv := 0; iv < intervals; iv++ {
			if one.Count(iv) != bulk.Count(iv) {
				t.Fatalf("gen %d: Count(%d) = %d per record, %d bulk", gen, iv, one.Count(iv), bulk.Count(iv))
			}
		}
		if one.Total() != n || bulk.Total() != n {
			t.Fatalf("gen %d: totals %d and %d, want %d", gen, one.Total(), bulk.Total(), n)
		}
		pagesOne, pagesBulk := filePages(t, devOne, intervals), filePages(t, devBulk, intervals)
		for iv := range pagesOne {
			if !bytes.Equal(pagesOne[iv], pagesBulk[iv]) {
				t.Fatalf("gen %d: interval %d log files differ", gen, iv)
			}
		}
		if gen == 1 {
			for iv, want := range filePages(t, devFresh, intervals) {
				if !bytes.Equal(pagesOne[iv], want) {
					t.Fatalf("interval %d: a log on recycled pages differs from a fresh one", iv)
				}
			}
		}
		if err := one.ResetAll(); err != nil {
			t.Fatal(err)
		}
		if err := bulk.ResetAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendRecsEvictionReentersReclaimer: an eviction in the middle of a
// bulk append hits the disk quota, and the device calls back into this very
// Log's ReclaimConsumed — which takes the Log's lock. AppendRecs must not be
// holding it.
func TestAppendRecsEvictionReentersReclaimer(t *testing.T) {
	l, dev := testLog(t, 4, 1) // floor budget: appends evict all along
	for i := uint32(0); i < 100; i++ {
		if err := l.Append(int(i%2), i, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	l.MarkConsumed(0, 1)
	defer dev.AddReclaimer(func() {
		if err := l.ReclaimConsumed(); err != nil {
			t.Error(err)
		}
	})()
	dev.SetFaults(ssd.FaultPlan{NoSpace: ssd.Trigger{At: []int64{0}}}) // the next write that grows a file finds the device full

	_, recs := testStream(500, 2, 4)
	for i := range recs {
		recs[i].Dst += 2 * testWidth
	}
	done := make(chan error, 1)
	go func() { _, err := l.AppendRecs(testIndex(4), 0, 3, recs); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("AppendRecs held the Log's lock across an eviction: the reclaimer deadlocked")
	}
	if st := dev.Stats(); st.Reclaims == 0 {
		t.Fatalf("no reclamation ran: %+v", st)
	}
	if l.Count(0) != 0 || l.Count(1) != 0 || l.Total() != 500 {
		t.Fatalf("counts after reclaim = %d, %d, total %d; want 0, 0, 500", l.Count(0), l.Count(1), l.Total())
	}
}

// TestReadRecsMatchesRead: the bulk read appends exactly what Read streams,
// after what the caller's slice already held, for the same device reads.
func TestReadRecsMatchesRead(t *testing.T) {
	const intervals = 3
	l, dev := testLog(t, intervals, 1<<20)
	_, recs := testStream(2500, intervals, 9) // > readBatch pages in each interval
	if _, err := l.AppendRecs(testIndex(intervals), 0, intervals-1, recs); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	held := vc.Msg{Dst: 7, Src: 8, Data: 9}
	for iv := 0; iv < intervals; iv++ {
		before := dev.Stats()
		want := []vc.Msg{held}
		if err := l.Read(iv, func(dst, src, data uint32) {
			want = append(want, vc.Msg{Dst: dst, Src: src, Data: data})
		}); err != nil {
			t.Fatal(err)
		}
		readIO := dev.Stats().Sub(before)
		before = dev.Stats()
		got, err := l.ReadRecs(iv, []vc.Msg{held})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("interval %d: ReadRecs gave %d records, Read %d, or they differ", iv, len(got)-1, len(want)-1)
		}
		if bulkIO := dev.Stats().Sub(before); bulkIO != readIO || readIO.BatchReads < 2 {
			t.Fatalf("interval %d: device reads differ or were one batch\nRead:     %+v\nReadRecs: %+v", iv, readIO, bulkIO)
		}
		if uint64(len(got)-1) != l.Count(iv) {
			t.Fatalf("interval %d: read %d records, Count %d", iv, len(got)-1, l.Count(iv))
		}
	}
}

// TestRecsBuffersNeverShared: a buffer from GetRecs is the caller's alone
// until PutRecs, however many are out, and the Log keeps a bounded number.
func TestRecsBuffersNeverShared(t *testing.T) {
	l, _ := testLog(t, 1, 1<<20)
	var out [][]vc.Msg
	for i := 0; i < 5; i++ {
		buf := l.GetRecs(10)
		if cap(buf) < 10 || len(buf) != 0 {
			t.Fatalf("GetRecs(10): len %d cap %d", len(buf), cap(buf))
		}
		out = append(out, append(buf, vc.Msg{Dst: uint32(i)}))
	}
	for i, buf := range out {
		if buf[0].Dst != uint32(i) {
			t.Fatalf("buffer %d was handed out twice", i)
		}
		l.PutRecs(buf)
	}
	a, b, c := l.GetRecs(1), l.GetRecs(1), l.GetRecs(1)
	a, b, c = append(a, vc.Msg{}), append(b, vc.Msg{}), append(c, vc.Msg{})
	if &a[0] == &b[0] || &a[0] == &c[0] || &b[0] == &c[0] {
		t.Fatal("one returned buffer handed out twice")
	}
	if got := l.GetRecs(1 << 12); cap(got) < 1<<12 {
		t.Fatalf("GetRecs(4096) returned cap %d", cap(got))
	}
}

// TestGenerationsShareBuffers: the pages one generation wrote out are the
// pages the other writes into next — the pair allocates one generation's
// worth — while their records and files stay apart; and the staging buffer an
// outsized flush needed is not kept.
func TestGenerationsShareBuffers(t *testing.T) {
	const intervals = 2
	cur, dev := testLog(t, intervals, 1<<20)
	next := cur.NewGeneration("log.next")
	if next.Budget() != cur.Budget() || next.NumIntervals() != intervals || next.Device() != dev {
		t.Fatalf("NewGeneration: budget %d, %d intervals", next.Budget(), next.NumIntervals())
	}
	_, recs := testStream(10*(readBatch+6), intervals, 3) // a flush of > readBatch pages
	idx := testIndex(intervals)
	if _, err := cur.AppendRecs(idx, 0, intervals-1, recs); err != nil {
		t.Fatal(err)
	}
	if err := cur.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pages := len(cur.bufs.pages)
	if pages < readBatch+6 {
		t.Fatalf("%d pages recycled after the flush, want every page written", pages)
	}
	if keep := readBatch * dev.PageSize(); cap(cur.bufs.stage) > keep {
		t.Fatalf("staging buffer of %d bytes kept, the bound is %d", cap(cur.bufs.stage), keep)
	}
	if _, err := next.AppendRecs(idx, 0, intervals-1, recs[:100]); err != nil {
		t.Fatal(err)
	}
	if got := len(next.bufs.pages); got >= pages {
		t.Fatalf("the next generation took none of the %d recycled pages (%d left)", pages, got)
	}
	if cur.Total() != uint64(len(recs)) || next.Total() != 100 {
		t.Fatalf("totals %d and %d, want %d and 100", cur.Total(), next.Total(), len(recs))
	}
	var got []vc.Msg
	for iv := 0; iv < intervals; iv++ {
		var err error
		if got, err = cur.ReadRecs(iv, got); err != nil {
			t.Fatal(err)
		}
	}
	slices.SortFunc(got, func(a, b vc.Msg) int { return int(a.Src) - int(b.Src) })
	if !slices.Equal(got, recs) {
		t.Fatal("the first generation's records changed under the second's appends")
	}
}

// BenchmarkLogAppend: the cost of logging one record, sent one Append at a
// time and in bulk, evictions and device writes included (64 intervals,
// 16 KiB pages, a budget of 64 pages).
func BenchmarkLogAppend(b *testing.B) {
	const intervals, run = 64, 4096
	ivs, recs := testStream(run, intervals, 1)
	idx := testIndex(intervals)
	newLog := func(b *testing.B) *Log {
		dev := ssd.MustOpen(ssd.Config{PageSize: 16384, Channels: 8})
		l, err := New(dev, "bench", intervals, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		return l
	}
	// Every 64 runs the generation is reset, as at a superstep boundary, so
	// the RAM-backed device does not grow with b.N.
	reset := func(b *testing.B, l *Log, i int) {
		if i%(64*run) == 0 {
			if err := l.ResetAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("one", func(b *testing.B) {
		l := newLog(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reset(b, l, i)
			r := recs[i%run]
			if err := l.Append(int(ivs[i%run]), r.Dst, r.Src, r.Data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		l := newLog(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i += run {
			reset(b, l, i)
			n := min(run, b.N-i)
			if _, err := l.AppendRecs(idx, 0, intervals-1, recs[:n]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A device reclaimer runs on whichever goroutine's write hit the quota — in
// a daemon, another query's. Its sweep of the consumed intervals must be
// over, file truncations included, before the owner's ResetAll returns:
// a truncation that lands after the generation is reused would drop pages
// the new superstep has already flushed ("records missing").
func TestReclaimNeverTruncatesReusedGeneration(t *testing.T) {
	l, _ := testLog(t, 2, 1) // floor budget: appends flush all along
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.ReclaimConsumed(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const recs = 35 // three full pages and a partial one
	for round := 0; round < 3000; round++ {
		for i := uint32(0); i < recs; i++ {
			if err := l.Append(0, i, 0, uint32(round)); err != nil {
				t.Fatal(err)
			}
		}
		seen := 0
		if err := l.Read(0, func(_, _, data uint32) {
			if data == uint32(round) {
				seen++
			}
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if seen != recs {
			t.Fatalf("round %d: read %d of its %d records", round, seen, recs)
		}
		l.MarkConsumed(0, 0)
		if err := l.ResetAll(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
