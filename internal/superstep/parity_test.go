package superstep_test

import (
	"fmt"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/grafboost"
	"multilogvc/internal/graphchi"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// TestCrossEngineParity is the contract the shared loop and pool exist to
// keep: every engine, at any worker count, computes values bit-identical
// to the in-memory reference in the same number of supersteps.
func TestCrossEngineParity(t *testing.T) {
	rmat := func(scale, ef int, seed int64) []graphio.Edge {
		edges, err := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
		if err != nil {
			t.Fatal(err)
		}
		return edges
	}
	planted, err := gen.PlantedPartition(3, 40, 8, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	weights := func(s, d uint32) uint32 {
		if s > d {
			s, d = d, s
		}
		return uint32(vc.Hash64(uint64(s), uint64(d))%16) + 1
	}

	cases := []struct {
		name     string
		prog     func() vc.Program
		edges    []graphio.Edge
		n        uint32
		weighted bool
		steps    int
	}{
		{"bfs", func() vc.Program { return &apps.BFS{Source: 3} }, rmat(9, 8, 11), 1 << 9, false, 50},
		{"pagerank", func() vc.Program { return &apps.PageRank{} }, rmat(9, 8, 7), 1 << 9, false, 15},
		{"cdlp", func() vc.Program { return &apps.CDLP{} }, planted, graphio.NumVertices(planted), false, 15},
		{"sssp-weighted", func() vc.Program { return &apps.SSSP{Source: 1} }, rmat(8, 6, 5), 1 << 8, true, 300},
	}
	for _, app := range cases {
		var wedges []graphio.WeightedEdge // only for weighted cases
		want := vc.NewRef(app.edges, app.n).Run(app.prog(), app.steps)
		if app.weighted {
			wedges = graphio.AttachWeights(app.edges, weights)
			want = vc.NewRefWeighted(wedges, app.n).Run(app.prog(), app.steps)
		}
		_, combinable := app.prog().(vc.Combiner)

		// Each run gets a fresh device: the engines' scratch names collide.
		build := func(t *testing.T) *csr.Graph {
			dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
			opts := csr.BuildOptions{NumVertices: app.n, IntervalBudget: 2048}
			var g *csr.Graph
			var err error
			if app.weighted {
				g, err = csr.BuildWeighted(dev, "g", wedges, opts)
			} else {
				g, err = csr.Build(dev, "g", app.edges, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		engines := map[string]func(g *csr.Graph, workers int) (*superstep.Result, error){
			"multilogvc": func(g *csr.Graph, workers int) (*superstep.Result, error) {
				return core.New(g, core.Config{MaxSupersteps: app.steps, Workers: workers}).Run(app.prog())
			},
			"graphchi": func(g *csr.Graph, workers int) (*superstep.Result, error) {
				cfg := graphchi.Config{MaxSupersteps: app.steps, Workers: workers}
				if app.weighted {
					return graphchi.NewWeighted(g.Device(), "g", wedges, g.Intervals(), cfg).Run(app.prog())
				}
				return graphchi.New(g.Device(), "g", app.edges, g.Intervals(), cfg).Run(app.prog())
			},
			"grafboost": func(g *csr.Graph, workers int) (*superstep.Result, error) {
				return grafboost.New(g, grafboost.Config{
					MaxSupersteps: app.steps, Workers: workers, Adapted: !combinable,
				}).Run(app.prog())
			},
		}
		for name, run := range engines {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", app.name, name, workers), func(t *testing.T) {
					got, err := run(build(t), workers)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Values) != len(want.Values) {
						t.Fatalf("value count %d != %d", len(got.Values), len(want.Values))
					}
					diff := 0
					for v := range want.Values {
						if got.Values[v] != want.Values[v] {
							if diff++; diff <= 5 {
								t.Errorf("value[%d] = %d, want %d", v, got.Values[v], want.Values[v])
							}
						}
					}
					if diff > 0 {
						t.Fatalf("%d/%d values differ from reference", diff, len(want.Values))
					}
					if got.Report.Converged != want.Converged || len(got.Report.Supersteps) != want.Supersteps {
						t.Fatalf("converged=%v after %d supersteps, reference converged=%v after %d",
							got.Report.Converged, len(got.Report.Supersteps), want.Converged, want.Supersteps)
					}
				})
			}
		}
	}
}
