package mlog

import (
	"sync"
	"testing"

	"multilogvc/internal/ssd"
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
	if f, _ := l.FilePages(0); f != nil {
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

func BenchmarkAppend(b *testing.B) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 16384, Channels: 8})
	l, _ := New(dev, "bench", 64, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(i&63, uint32(i), uint32(i), uint32(i))
	}
}
