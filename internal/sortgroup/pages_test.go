package sortgroup

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/mlog"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// randomLogs builds two identical logs, each on a device of its own, over
// intervals of random widths — some a few vertices, some over 256 — and logs
// n records to them: each to a random destination of a random interval, some
// intervals left empty; the narrow intervals' destinations repeat. A
// mid-stream FlushAll leaves partial pages inside the files, as the
// asynchronous model's mid-superstep reads do.
func randomLogs(t *testing.T, rng *rand.Rand, n int) (a, b *mlog.Log, ivs []csr.Interval) {
	t.Helper()
	intervals := 1 + rng.Intn(12)
	lo := uint32(rng.Intn(1000))
	for i := 0; i < intervals; i++ {
		w := uint32(1 + rng.Intn(20))
		if rng.Intn(3) == 0 {
			w = uint32(200 + rng.Intn(3000))
		}
		ivs = append(ivs, csr.Interval{Lo: lo, Hi: lo + w})
		lo += w
	}
	empty := make([]bool, intervals)
	for i := range empty {
		empty[i] = rng.Intn(4) == 0
	}
	ps := mlog.RecordBytes*(1+rng.Intn(12)) + 4 + rng.Intn(mlog.RecordBytes)
	mk := func() *mlog.Log {
		l, err := mlog.New(ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 3}), "log", intervals, int64(rng.Intn(4*ps)))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a, b = mk(), mk()
	flushAt := rng.Intn(n + 1)
	for i := 0; i < n; i++ {
		if i == flushAt {
			for _, l := range []*mlog.Log{a, b} {
				if err := l.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
		iv := rng.Intn(intervals)
		if empty[iv] {
			continue
		}
		dst, data := ivs[iv].Lo+uint32(rng.Intn(int(ivs[iv].Len()))), rng.Uint32()
		for _, l := range []*mlog.Log{a, b} {
			if err := l.Append(iv, dst, uint32(i), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range []*mlog.Log{a, b} {
		if err := l.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	return a, b, ivs
}

// TestLoadMatchesReadRecsAndStableSort: on random logs — multi-page, fused
// intervals, empty intervals, repeated destinations, batch spans below and
// above 256 — Load's records equal, record for record, what reading each of
// the batch's intervals with ReadRecs and sorting stably gives, and Load
// reads the device exactly as those ReadRecs calls do. The budget fuses some
// intervals and spills none: the spill path has tests of its own.
func TestLoadMatchesReadRecsAndStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		loaded, ref, ivs := randomLogs(t, rng, rng.Intn(3000))
		var most uint64
		for iv := range ivs {
			most = max(most, loaded.Count(iv))
		}
		opts := Options{SortBudget: int64(most+uint64(rng.Intn(1000))) * mlog.RecordBytes, NoFuse: rng.Intn(5) == 0}
		if rng.Intn(4) == 0 {
			opts.SortBudget = 0
		}
		for iv := 0; iv < len(ivs); {
			before := loaded.Device().Stats()
			b, err := Load(loaded, ivs, iv, opts)
			if err != nil {
				t.Fatalf("trial %d: Load(%d): %v", trial, iv, err)
			}
			loadIO := loaded.Device().Stats().Sub(before)
			if b.Spilled {
				t.Fatalf("trial %d: interval %d spilled", trial, iv)
			}
			before = ref.Device().Stats()
			var want []vc.Msg
			for j := b.FirstIv; j <= b.LastIv; j++ {
				if want, err = ref.ReadRecs(j, want); err != nil {
					t.Fatal(err)
				}
			}
			refIO := ref.Device().Stats().Sub(before)
			extsort.SortByDst(want, nil)
			if !slices.Equal(b.Recs, want) {
				t.Fatalf("trial %d: batch [%d,%d] of %d records differs from ReadRecs + SortByDst (%d records)",
					trial, b.FirstIv, b.LastIv, len(b.Recs), len(want))
			}
			if loadIO != refIO || loadIO.StorageTime() != refIO.StorageTime() {
				t.Fatalf("trial %d: batch [%d,%d]: device reads differ\nLoad:     %+v\nReadRecs: %+v", trial, b.FirstIv, b.LastIv, loadIO, refIO)
			}
			iv = b.LastIv + 1
			b.Close()
		}
	}
}

// A record logged to the wrong interval — its destination outside the
// batch's vertices — fails the Load, where sorting it would hand the engine a
// message for a vertex the batch does not process.
func TestLoadRejectsRecordOutsideBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		iv   int
		dst  uint32
		opts Options
	}{
		{"next interval", 0, 25, Options{NoFuse: true}},
		{"earlier interval", 2, 3, Options{SortBudget: 1 << 20}},
		{"past the graph", 0, 1 << 20, Options{SortBudget: 1 << 20}},
		{"wide span", 1, 1<<31 + 7, Options{SortBudget: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, ivs := fixture(t)
			for i := uint32(0); i < 60; i++ { // the stray record among others, past a page
				dst := ivs[tc.iv].Lo + i%10
				if i == 37 {
					dst = tc.dst
				}
				if err := l.Append(tc.iv, dst, i, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.FlushAll(); err != nil {
				t.Fatal(err)
			}
			b, err := Load(l, ivs, tc.iv, tc.opts)
			if err == nil {
				t.Fatalf("Load sorted a record to %d into batch [%d,%d) of %d records", tc.dst, b.Lo, b.Hi, len(b.Recs))
			}
			if want := fmt.Sprint(tc.dst); !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want it to name vertex %s", err, want)
			}
		})
	}
}

// FuzzLoadPages throws arbitrary page bytes, page sizes and vertex ranges at
// the page-buffer sort: it must return a batch sorted stably by destination —
// what decoding each page by its header and sorting gives — or an error,
// never panic.
func FuzzLoadPages(f *testing.F) {
	// Seeds: the pages of a real log, a lying header, an empty buffer, a
	// ragged tail, and records outside the range.
	l, ivs := fixture(f)
	for i := uint32(0); i < 25; i++ {
		if err := l.Append(0, (i*7)%10, i, i); err != nil {
			f.Fatal(err)
		}
	}
	pages, err := l.ReadPages(0, nil)
	if err != nil {
		f.Fatal(err)
	}
	ps := uint16(l.PageSize())
	f.Add(pages, ps, ivs[0].Lo, ivs[0].Hi)
	f.Add(pages, ps, uint32(2), uint32(5))
	lying := slices.Clone(pages)
	binary.LittleEndian.PutUint32(lying, 0xFFFFFFFF)
	f.Add(lying, ps, uint32(0), uint32(10))
	f.Add([]byte{}, ps, uint32(0), uint32(0))
	f.Add(pages[:len(pages)-3], ps, uint32(0), uint32(10))
	f.Add(pages, uint16(0), uint32(0), uint32(10))

	f.Fuzz(func(t *testing.T, pages []byte, pageSize uint16, lo, hi uint32) {
		var want []vc.Msg
		wellFormed := pageSize > 0 && len(pages)%int(pageSize) == 0
		for p := pages; wellFormed && len(p) > 0; p = p[pageSize:] {
			enc, err := mlog.PageRecords(p[:pageSize])
			if err != nil {
				wellFormed = false
				break
			}
			for ; len(enc) > 0; enc = enc[mlog.RecordBytes:] {
				want = append(want, extsort.GetRecord(enc))
			}
		}
		for _, r := range want {
			wellFormed = wellFormed && r.Dst >= lo && r.Dst < hi
		}
		held := vc.Msg{Dst: 1, Src: 2, Data: 3}
		got, err := sortPages([]vc.Msg{held}, slices.Clone(pages), int(pageSize), lo, hi)
		if !wellFormed {
			if err == nil {
				t.Fatalf("sorted %d records from malformed pages", len(got))
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed pages: %v", err)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Dst < want[j].Dst })
		if !slices.Equal(got, want) {
			t.Fatalf("sorted %d records, want %d, or they differ", len(got), len(want))
		}
	})
}
