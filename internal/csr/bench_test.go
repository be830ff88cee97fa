package csr

import (
	"math/rand"
	"testing"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

// benchGraph is the pagerank_dense shape of bench/: RMAT(14,12) symmetrised,
// 4 KiB pages on 8 channels, an interval budget of 2 % of the edge bytes
// (≈200 intervals, the hubs in one- to three-vertex intervals of their own).
func benchGraph(b *testing.B) (*Graph, []graphio.Edge) {
	b.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(14, 12, 1))
	if err != nil {
		b.Fatal(err)
	}
	edges = graphio.MakeUndirected(edges)
	dev := ssd.MustOpen(ssd.Config{PageSize: 4096, Channels: 8})
	g, err := Build(dev, "g", edges, BuildOptions{IntervalBudget: int64(len(edges)) * 4 * 2 / 100 * 75 / 100})
	if err != nil {
		b.Fatal(err)
	}
	return g, edges
}

// sampleVerts draws about one vertex in every from each interval, ascending.
func sampleVerts(g *Graph, every int) [][]uint32 {
	rng := rand.New(rand.NewSource(1))
	out := make([][]uint32, len(g.Intervals()))
	for iv, interval := range g.Intervals() {
		for v := interval.Lo; v < interval.Hi; v++ {
			if every == 1 || rng.Intn(every) == 0 {
				out[iv] = append(out[iv], v)
			}
		}
	}
	return out
}

var sinkInt int

// BenchmarkIntervalOf: one vertex→interval lookup, the send path's per-message
// cost, over three destination mixes on a hub-skewed partition. dense is the
// destination stream of an all-active superstep (every edge, in sender
// order); sparse is uniform over the vertices; hubs draws only vertices in
// intervals at most three wide, where a block scan crossed dozens of
// intervals per lookup.
func BenchmarkIntervalOf(b *testing.B) {
	g, edges := benchGraph(b)
	graphio.SortEdges(edges)
	rng := rand.New(rand.NewSource(2))
	const mask = 1<<16 - 1
	mixes := map[string][]uint32{"dense": nil, "sparse": nil, "hubs": nil}
	var hubs []uint32
	for _, iv := range g.Intervals() {
		for v := iv.Lo; v < iv.Hi && iv.Len() <= 3; v++ {
			hubs = append(hubs, v)
		}
	}
	if len(hubs) < 16 {
		b.Fatalf("only %d vertices in hub intervals", len(hubs))
	}
	for i := 0; i <= mask; i++ {
		mixes["dense"] = append(mixes["dense"], edges[i%len(edges)].Dst)
		mixes["sparse"] = append(mixes["sparse"], uint32(rng.Intn(int(g.NumVertices()))))
		mixes["hubs"] = append(mixes["hubs"], hubs[rng.Intn(len(hubs))])
	}
	for _, name := range []string{"dense", "sparse", "hubs"} {
		dsts := mixes[name]
		b.Run(name, func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += g.IntervalOf(dsts[i&mask])
			}
			sinkInt = sum
		})
	}
}

// BenchmarkAdjFetch: the out-edges of every interval (a dense superstep) and
// of a 1 % vertex sample (a thin frontier), through the visitor form and
// through one arena reused from call to call as an engine run does. One op is
// one pass over the graph; ns/edge and allocs/op are the numbers to read.
func BenchmarkAdjFetch(b *testing.B) {
	g, _ := benchGraph(b)
	for _, shape := range []struct {
		name  string
		verts [][]uint32
	}{{"whole", sampleVerts(g, 1)}, {"sample1pct", sampleVerts(g, 100)}} {
		pass := func(b *testing.B, load func(iv int, verts []uint32) int) {
			b.ReportAllocs()
			edges := 0
			for i := 0; i < b.N; i++ {
				for iv, verts := range shape.verts {
					if len(verts) > 0 {
						edges += load(iv, verts)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
		}
		b.Run(shape.name+"/visitor", func(b *testing.B) {
			pass(b, func(iv int, verts []uint32) int {
				n := 0
				if _, err := g.LoadOutEdges(iv, verts, func(_ uint32, nbrs []uint32) { n += len(nbrs) }); err != nil {
					b.Fatal(err)
				}
				return n
			})
		})
		b.Run(shape.name+"/arena", func(b *testing.B) {
			var a Arena
			pass(b, func(iv int, verts []uint32) int {
				a.Reset(len(verts), false)
				if _, err := g.FillOutEdges(iv, verts, nil, &a); err != nil {
					b.Fatal(err)
				}
				n := 0
				for p := range verts {
					n += a.Degree(p)
				}
				return n
			})
		})
	}
}

// BenchmarkValuesBatch: load the value pages of a vertex set, read and write
// every vertex's value, flush — per interval, over whole intervals and over a
// 1 % sample, through LoadForVerts and through one batch reused as an engine
// run does. ns/vertex and allocs/op are the numbers to read.
func BenchmarkValuesBatch(b *testing.B) {
	g, _ := benchGraph(b)
	vals, err := CreateValues(g.Device(), "bench.values", g.NumVertices(), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name  string
		verts [][]uint32
	}{{"whole", sampleVerts(g, 1)}, {"sample1pct", sampleVerts(g, 100)}} {
		pass := func(b *testing.B, load func(verts []uint32) (*ValueBatch, error)) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				for _, verts := range shape.verts {
					if len(verts) == 0 {
						continue
					}
					vb, err := load(verts)
					if err != nil {
						b.Fatal(err)
					}
					for _, v := range verts {
						vb.Set(v, vb.Get(v)+1)
					}
					if _, err := vb.Flush(); err != nil {
						b.Fatal(err)
					}
					n += len(verts)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/vertex")
		}
		b.Run(shape.name+"/fresh", func(b *testing.B) {
			pass(b, func(verts []uint32) (*ValueBatch, error) {
				vb, _, err := vals.LoadForVerts(verts)
				return vb, err
			})
		})
		b.Run(shape.name+"/reused", func(b *testing.B) {
			var vb ValueBatch
			pass(b, func(verts []uint32) (*ValueBatch, error) {
				_, err := vals.LoadBatch(&vb, verts)
				return &vb, err
			})
		})
	}
}
