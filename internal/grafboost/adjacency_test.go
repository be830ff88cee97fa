package grafboost

import (
	"slices"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

// Once warm, a superstep's whole-interval adjacency load allocates nothing
// per vertex: the lists land in the run's out-edge arena, reused from
// interval to interval, at position v−Lo. Weights come along on a weighted
// graph and are nil on an unweighted one, as vc.Context promises.
func TestLoadAdjacencyAllocsNothingPerVertex(t *testing.T) {
	edges, n := rmatEdges(t, 11, 8, 4)
	weighted := graphio.AttachWeights(edges, func(src, dst uint32) uint32 { return 1 + (src*31+dst)%9 })
	for _, withWeights := range []bool{false, true} {
		dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
		opts := csr.BuildOptions{NumVertices: n, IntervalBudget: 2048}
		var g *csr.Graph
		var err error
		if withWeights {
			g, err = csr.BuildWeighted(dev, "g", weighted, opts)
		} else {
			g, err = csr.Build(dev, "g", edges, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		ivs := g.Intervals()
		largest := 0
		for iv := range ivs {
			if ivs[iv].Len() > ivs[largest].Len() {
				largest = iv
			}
		}
		r := &run{eng: New(g, Config{})}
		for iv := range ivs { // warm: the arena grows to the largest interval once
			if err := r.loadAdjacency(iv); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := r.loadAdjacency(largest); err != nil {
				t.Fatal(err)
			}
		})
		if verts := ivs[largest].Len(); verts < 64 || allocs > 2 {
			t.Fatalf("weighted %v: loading the %d vertices of interval %d allocates %.0f times, want at most 2 whatever the vertex count",
				withWeights, verts, largest, allocs)
		}

		want := make([][]uint32, n)
		wantW := make([][]uint32, n)
		for _, e := range weighted {
			want[e.Src] = append(want[e.Src], e.Dst)
			wantW[e.Src] = append(wantW[e.Src], e.Weight)
		}
		lo := ivs[largest].Lo
		for v := lo; v < ivs[largest].Hi; v++ {
			p := int(v - lo)
			got, gotW := slices.Sorted(slices.Values(r.out.Edges(p))), r.out.Weights(p)
			if !slices.Equal(got, slices.Sorted(slices.Values(want[v]))) {
				t.Fatalf("weighted %v: vertex %d has out-edges %v, want %v", withWeights, v, got, want[v])
			}
			if !withWeights && gotW != nil || withWeights && len(gotW) != len(got) {
				t.Fatalf("weighted %v: vertex %d has weights %v beside %d out-edges", withWeights, v, gotW, len(got))
			}
		}
	}
}
