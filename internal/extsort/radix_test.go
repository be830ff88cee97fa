package extsort

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"multilogvc/internal/vc"
)

// checkSortByDst holds SortByDst to sort.SliceStable on the same input:
// equal, element for element — which is the send-order contract, since Src
// and Data tell records of one destination apart.
func checkSortByDst(t *testing.T, name string, recs []vc.Msg) {
	t.Helper()
	want := slices.Clone(recs)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Dst < want[j].Dst })
	got := slices.Clone(recs)
	scratch := SortByDst(got, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): differs from sort.SliceStable", name, len(recs))
	}
	// The returned scratch is reusable as is, and a dirty one does no harm.
	got = slices.Clone(recs)
	SortByDst(got, scratch)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): differs from sort.SliceStable with a reused scratch", name, len(recs))
	}
}

func TestSortByDstMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Destination ranges as [lo, lo+width): one byte of key, and straddling
	// each boundary where the key grows a byte; up against MaxUint32; wide.
	// big marks one range per key width, one to four bytes: those also sort
	// 1e5 records.
	ranges := []struct {
		name      string
		lo, width uint64
		big       bool
	}{
		{"dense80", 1000, 80, true},
		{"one-byte", 0, 256, false},
		{"straddle-2^8", 200, 100, false},
		{"two-bytes", 7, 1 << 16, true},
		{"straddle-2^16", 1<<16 - 300, 600, false},
		{"straddle-2^24", 1<<24 - 5000, 10000, false},
		{"four-bytes", 0, 1 << 32, true},
		{"at-maxuint32", math.MaxUint32 - 99, 100, false},
		{"maxuint32-wide", math.MaxUint32 - (1<<20 - 1), 1 << 20, true},
	}
	sizes := []int{0, 1, 2, insertionMax - 1, insertionMax, insertionMax + 1, 1000, 100_000}
	for _, rg := range ranges {
		for _, n := range sizes {
			if n > 1000 && !rg.big {
				continue
			}
			recs := make([]vc.Msg, n)
			for i := range recs {
				recs[i] = vc.Msg{Dst: uint32(rg.lo + uint64(rng.Int63n(int64(rg.width)))), Src: uint32(i), Data: rng.Uint32()}
			}
			checkSortByDst(t, rg.name+"/random", recs)

			sorted := slices.Clone(recs)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Dst < sorted[j].Dst })
			checkSortByDst(t, rg.name+"/sorted", sorted)
			slices.Reverse(sorted)
			checkSortByDst(t, rg.name+"/reversed", sorted)

			for i := range recs {
				recs[i].Dst = uint32(rg.lo + rg.width - 1)
			}
			checkSortByDst(t, rg.name+"/all-equal", recs)
		}
	}
	// Both ends of the key space in one batch.
	recs := make([]vc.Msg, 10*insertionMax)
	for i := range recs {
		recs[i] = vc.Msg{Dst: []uint32{math.MaxUint32, 0, 1 << 31}[i%3], Src: uint32(i)}
	}
	checkSortByDst(t, "extremes", recs)
}

// A scratch too short is replaced, one long enough is kept, and neither is
// touched when the batch needs no radix pass.
func TestSortByDstScratch(t *testing.T) {
	recs := randomRecs(rand.New(rand.NewSource(3)), 10*insertionMax, 5000)
	short := make([]vc.Msg, 3)
	grown := SortByDst(slices.Clone(recs), short)
	if cap(grown) < len(recs) {
		t.Fatalf("scratch grown to %d for %d records", cap(grown), len(recs))
	}
	if kept := SortByDst(slices.Clone(recs), grown); &kept[:1][0] != &grown[:1][0] {
		t.Fatal("a large enough scratch was replaced")
	}
	if got := SortByDst(recs[:insertionMax], nil); got != nil {
		t.Fatal("scratch allocated for an insertion-sorted batch")
	}
	SortByDst(recs, grown)
	if got := SortByDst(recs, nil); got != nil {
		t.Fatal("scratch allocated for a sorted batch")
	}
}

// The k-way merge keeps the contract across runs: records of one
// destination come out earlier run first.
func TestMergeIsStableAcrossRuns(t *testing.T) {
	rs := NewRuns(dev(), "stable", nil)
	defer rs.Remove()
	const runs, perRun, dsts = 5, 200, 7
	for run := 0; run < runs; run++ {
		recs := make([]vc.Msg, perRun)
		for i := range recs {
			recs[i] = vc.Msg{Dst: uint32(i % dsts), Src: uint32(run*perRun + i)}
		}
		if err := rs.Flush(recs); err != nil {
			t.Fatal(err)
		}
	}
	m := rs.Merge()
	var prev vc.Msg
	for n := 0; ; n++ {
		r, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if n != runs*perRun {
				t.Fatalf("merged %d records, want %d", n, runs*perRun)
			}
			return
		}
		if n > 0 && (r.Dst < prev.Dst || r.Dst == prev.Dst && r.Src <= prev.Src) {
			t.Fatalf("record %d: %+v after %+v", n, r, prev)
		}
		prev = r
	}
}

var sinkScratch []vc.Msg

// BenchmarkSortByDst: the two shapes the engine sorts — a dense batch over
// one interval's ~80 vertices (PageRank) and a thin one scattered over a
// million (a BFS frontier across fused intervals). EXPERIMENTS.md records
// these beside the comparator sort they replaced.
func BenchmarkSortByDst(b *testing.B) {
	for _, shape := range []struct {
		name  string
		width int
	}{{"dense80", 80}, {"sparse1M", 1 << 20}} {
		for _, n := range []int{1000, 100_000} {
			input := randomRecs(rand.New(rand.NewSource(1)), n, shape.width)
			recs := make([]vc.Msg, n)
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(recs, input)
					sinkScratch = SortByDst(recs, sinkScratch)
				}
			})
		}
	}
}
