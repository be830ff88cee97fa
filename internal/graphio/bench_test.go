package graphio_test

import (
	"math/rand"
	"testing"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
)

// sortShapes are the two inputs set-up sorts: a grid's symmetric closure
// in generation order, which is nearly sorted by source (gen.Grid's
// MakeUndirected input), and an R-MAT edge list in random order, whose
// skewed degrees crowd a few keys. Both hold about 2 M edges.
func sortShapes(b *testing.B) map[string][]graphio.Edge {
	const side = 724 // 724² vertices, ≈2.1 M directed grid edges
	var grid []graphio.Edge
	for r := range side {
		for c := range side {
			v := uint32(r*side + c)
			if c+1 < side {
				grid = append(grid, graphio.Edge{Src: v, Dst: v + 1}, graphio.Edge{Src: v + 1, Dst: v})
			}
			if r+1 < side {
				grid = append(grid, graphio.Edge{Src: v, Dst: v + side}, graphio.Edge{Src: v + side, Dst: v})
			}
		}
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(17, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(rmat), func(i, j int) { rmat[i], rmat[j] = rmat[j], rmat[i] })
	return map[string][]graphio.Edge{"grid": grid, "rmat": rmat}
}

// BenchmarkSortEdges times one SortEdges of each shape; the copy that
// restores the unsorted input is outside the timer.
func BenchmarkSortEdges(b *testing.B) {
	shapes := sortShapes(b)
	for _, name := range []string{"grid", "rmat"} {
		in := shapes[name]
		b.Run(name, func(b *testing.B) {
			work := make([]graphio.Edge, len(in))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, in)
				b.StartTimer()
				graphio.SortEdges(work)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(in)), "ns/edge")
			b.ReportMetric(float64(len(in)), "edges")
		})
	}
}
