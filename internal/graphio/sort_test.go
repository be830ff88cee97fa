package graphio

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// sortInputs are the shapes every exported sort and dedup is checked on.
// Weights are input indexes, so a tie that changes order shows.
func sortInputs() map[string][]WeightedEdge {
	rng := rand.New(rand.NewSource(7))
	gen := func(m int, id func() uint32) []WeightedEdge {
		w := make([]WeightedEdge, m)
		for i := range w {
			w[i] = WeightedEdge{id(), id(), uint32(i)}
		}
		return w
	}
	random := gen(3000, func() uint32 { return uint32(rng.Intn(1000)) })
	sorted := slices.Clone(random)
	slices.SortStableFunc(sorted, func(a, b WeightedEdge) int { return cmp.Compare(weightedSrcDst(a), weightedSrcDst(b)) })
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	return map[string][]WeightedEdge{
		"random":    random,
		"duplicate": gen(3000, func() uint32 { return uint32(rng.Intn(8)) }),
		"ties":      gen(500, func() uint32 { return uint32(rng.Intn(3)) }),
		"sorted":    sorted,
		"reversed":  reversed,
		"empty":     nil,
		"single":    gen(1, func() uint32 { return 5 }),
		"sparse":    gen(300, func() uint32 { return math.MaxUint32 - uint32(rng.Intn(40)) }),
		"mixed":     gen(300, func() uint32 { return uint32(rng.Intn(10)) << 28 }),
	}
}

// refSort is the contract: a stable comparison sort on the packed key.
func refSort[E any](s []E, k func(E) uint64) []E {
	s = slices.Clone(s)
	slices.SortStableFunc(s, func(a, b E) int { return cmp.Compare(k(a), k(b)) })
	return s
}

// refDedup keeps the first edge of each key in input order, then sorts.
func refDedup[E any](s []E, k func(E) uint64) []E {
	s = refSort(s, k)
	return slices.CompactFunc(s, func(a, b E) bool { return k(a) == k(b) })
}

func refUndirected(w []WeightedEdge) []WeightedEdge {
	var out []WeightedEdge
	for _, e := range w {
		if e.Src != e.Dst {
			out = append(out, e, WeightedEdge{e.Dst, e.Src, e.Weight})
		}
	}
	return refDedup(out, weightedSrcDst)
}

func equalOrEmpty[E comparable](a, b []E) bool {
	return len(a) == 0 && len(b) == 0 || slices.Equal(a, b)
}

// TestSortsMatchStableReference checks every exported sort and dedup
// against a stable comparison sort on the same key, on each input shape.
func TestSortsMatchStableReference(t *testing.T) {
	for name, in := range sortInputs() {
		t.Run(name, func(t *testing.T) {
			inE := Strip(in)
			check := func(op string, ok bool) {
				if !ok {
					t.Errorf("%s differs from the stable reference", op)
				}
			}
			got := slices.Clone(inE)
			SortEdges(got)
			check("SortEdges", slices.Equal(got, refSort(inE, srcDst)))
			gotW := slices.Clone(in)
			SortWeighted(gotW)
			check("SortWeighted", slices.Equal(gotW, refSort(in, weightedSrcDst)))
			check("Dedup", slices.Equal(Dedup(slices.Clone(inE)), refDedup(inE, srcDst)))
			check("DedupWeighted", slices.Equal(DedupWeighted(slices.Clone(in)), refDedup(in, weightedSrcDst)))
			check("MakeUndirected", slices.Equal(MakeUndirected(slices.Clone(inE)), Strip(refUndirected(in))))
			check("MakeUndirectedWeighted", slices.Equal(MakeUndirectedWeighted(slices.Clone(in)), refUndirected(in)))
		})
	}
}

// TestSortRangeRule checks both sides of the counting path's range rule:
// the counting sort allocates its temporary copy and counts (two
// allocations), the comparison sort sorts in place, and a sorted input
// allocates nothing either way.
func TestSortRangeRule(t *testing.T) {
	const m = 1000
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		maxID  uint32
		allocs float64
	}{
		{countRange*m - 1, 2}, // the largest ID the counting path takes
		{countRange * m, 0},
		{math.MaxUint32, 0},
	} {
		in := make([]Edge, m)
		for i := range in {
			in[i] = Edge{uint32(rng.Int63n(int64(c.maxID) + 1)), uint32(rng.Int63n(int64(c.maxID) + 1))}
		}
		in[0].Src = c.maxID
		work := make([]Edge, m)
		got := testing.AllocsPerRun(5, func() {
			copy(work, in)
			SortEdges(work)
		})
		if got != c.allocs {
			t.Errorf("max ID %d over %d edges: %v allocations a sort, want %v", c.maxID, m, got, c.allocs)
		}
		if !slices.Equal(work, refSort(in, srcDst)) {
			t.Errorf("max ID %d: wrong order", c.maxID)
		}
		if got := testing.AllocsPerRun(5, func() { SortEdges(work) }); got != 0 {
			t.Errorf("max ID %d: sorted input allocates %v times", c.maxID, got)
		}
	}
}

// TestSparseSortAllocatesLittle: a few edges between IDs near 1<<32 must
// not size anything by the ID range.
func TestSparseSortAllocatesLittle(t *testing.T) {
	in := []WeightedEdge{{math.MaxUint32, 1 << 31, 1}, {0, math.MaxUint32 - 1, 2}, {math.MaxUint32, 0, 3}}
	for op, f := range map[string]func(){
		"SortEdges":              func() { SortEdges(Strip(in)) },
		"Dedup":                  func() { Dedup(Strip(in)) },
		"MakeUndirected":         func() { MakeUndirected(Strip(in)) },
		"MakeUndirectedWeighted": func() { MakeUndirectedWeighted(in) },
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d > 1<<20 {
			t.Errorf("%s of 3 sparse edges allocated %d B", op, d)
		}
	}
}
