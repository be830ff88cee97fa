package superstep_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/grafboost"
	"multilogvc/internal/graphchi"
	"multilogvc/internal/graphio"
	"multilogvc/internal/pagecache"
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
		badDst   uint32 // != 0: the program sends here and every engine must refuse
	}{
		{"bfs", func() vc.Program { return &apps.BFS{Source: 3} }, rmat(9, 8, 11), 1 << 9, false, 50, 0},
		{"pagerank", func() vc.Program { return &apps.PageRank{} }, rmat(9, 8, 7), 1 << 9, false, 15, 0},
		{"cdlp", func() vc.Program { return &apps.CDLP{} }, planted, graphio.NumVertices(planted), false, 15, 0},
		{"sssp-weighted", func() vc.Program { return &apps.SSSP{Source: 1} }, rmat(8, 6, 5), 1 << 8, true, 300, 0},
		// A send past the last vertex: just past (it used to be filed in the
		// last interval and panic a superstep later) and far past (it used to
		// panic in the interval lookup).
		{"send-past-end", func() vc.Program { return strayBFS{&apps.BFS{Source: 3}, 1 << 8} }, rmat(8, 6, 5), 1 << 8, false, 50, 1 << 8},
		{"send-far-past-end", func() vc.Program { return strayBFS{&apps.BFS{Source: 3}, 1 << 20} }, rmat(8, 6, 5), 1 << 8, false, 50, 1 << 20},
	}
	for _, app := range cases {
		var wedges []graphio.WeightedEdge // only for weighted cases
		var want *vc.RefResult
		switch {
		case app.badDst != 0: // the reference would index out of range too
		case !app.weighted:
			want = vc.NewRef(app.edges, app.n).Run(app.prog(), app.steps)
		default:
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
					if app.badDst != 0 {
						if !errors.Is(err, superstep.ErrBadSend) || !strings.Contains(err.Error(), fmt.Sprintf("vertex 3 sent to %d", app.badDst)) {
							t.Fatalf("err = %v, want ErrBadSend naming sender 3 and destination %d", err, app.badDst)
						}
						return
					}
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

// TestCountersIndependentOfWorkers is the contract the shared send buffer
// exists to keep: what reaches the device — pages per stage and the virtual
// time they cost, and with a cache attached its hits and misses — is a
// function of the graph, the program and the configuration, never of the
// worker count or the goroutine schedule.
func TestCountersIndependentOfWorkers(t *testing.T) {
	edges, err := gen.RMAT(gen.DefaultRMAT(11, 8, 29))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 11
	build := func(t *testing.T) *csr.Graph {
		g, err := csr.Build(ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4}), "g", edges,
			csr.BuildOptions{NumVertices: n, IntervalBudget: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	mlvc := func(cfg core.Config) func(*csr.Graph, int) (*superstep.Result, error) {
		return func(g *csr.Graph, workers int) (*superstep.Result, error) {
			cfg.MaxSupersteps, cfg.Workers = 6, workers
			return core.New(g, cfg).Run(&apps.PageRank{})
		}
	}
	// cached runs MultiLogVC behind a fresh cache of 64 pages, a fraction of
	// the graph's CSR and values, so every superstep evicts.
	cached := func(prog vc.Program) func(*csr.Graph, int) (*superstep.Result, error) {
		return func(g *csr.Graph, workers int) (*superstep.Result, error) {
			c := pagecache.New(64, g.Device().PageSize())
			g.Device().AttachCache(c)
			res, err := core.New(g, core.Config{MaxSupersteps: 6, Workers: workers, Cache: c}).Run(prog)
			if err == nil && res.Report.CacheEvictions == 0 {
				err = errors.New("the cache never evicted: it holds the whole graph")
			}
			return res, err
		}
	}
	engines := []struct {
		name string
		run  func(g *csr.Graph, workers int) (*superstep.Result, error)
	}{
		{"multilogvc", mlvc(core.Config{})},
		// The sort budget fuses the whole graph into one batch of ~16K
		// sends — several waves — while the message log keeps its floor of
		// one 42-record page per interval, so evictions fall mid-wave.
		{"multilogvc/waves+evictions", mlvc(core.Config{MemoryBudget: 1 << 10, SortBudget: 1 << 20})},
		{"multilogvc/async", mlvc(core.Config{MemoryBudget: 1 << 10, Async: true})},
		{"multilogvc/cached/pagerank", cached(&apps.PageRank{})},
		{"multilogvc/cached/bfs", cached(&apps.BFS{Source: 0})},
		{"graphchi", func(g *csr.Graph, workers int) (*superstep.Result, error) {
			return graphchi.New(g.Device(), "g", edges, g.Intervals(),
				graphchi.Config{MaxSupersteps: 6, Workers: workers}).Run(&apps.PageRank{})
		}},
		// A budget far below the log size, so every superstep sorts many
		// runs whose boundaries follow the log's record order.
		{"grafboost", func(g *csr.Graph, workers int) (*superstep.Result, error) {
			return grafboost.New(g, grafboost.Config{
				MaxSupersteps: 6, MemoryBudget: 8 << 10, Workers: workers,
			}).Run(&apps.PageRank{})
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			var want *superstep.Result
			for _, workers := range []int{1, 2, 4, 8} {
				got, err := eng.run(build(t), workers)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				a, b := want.Report, got.Report
				if a.PagesRead != b.PagesRead || a.PagesWritten != b.PagesWritten {
					t.Fatalf("pages read/written %d/%d at 1 worker, %d/%d at %d",
						a.PagesRead, a.PagesWritten, b.PagesRead, b.PagesWritten, workers)
				}
				if a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses {
					t.Fatalf("cache hits/misses %d/%d at 1 worker, %d/%d at %d",
						a.CacheHits, a.CacheMisses, b.CacheHits, b.CacheMisses, workers)
				}
				if !reflect.DeepEqual(a.Stages, b.Stages) {
					t.Fatalf("stage rows differ:\n1 worker:  %+v\n%d workers: %+v", a.Stages, workers, b.Stages)
				}
				if !reflect.DeepEqual(want.Values, got.Values) {
					t.Fatalf("values differ between 1 and %d workers", workers)
				}
			}
		})
	}
}

// strayBFS is BFS from vertex 3 whose source also sends to dst.
type strayBFS struct {
	*apps.BFS
	dst uint32
}

func (p strayBFS) Process(ctx vc.Context, msgs []vc.Msg) {
	if ctx.Superstep() == 0 {
		ctx.Send(p.dst, 1)
	}
	p.BFS.Process(ctx, msgs)
}
