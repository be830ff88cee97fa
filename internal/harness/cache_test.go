package harness

import (
	"slices"
	"strings"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/engine"
	"multilogvc/internal/gen"
	"multilogvc/internal/metrics"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/vc"
)

// TestCacheParity verifies the page cache is purely a performance layer:
// running with a cache produces bit-identical vertex values while reading
// measurably fewer device pages (repeat reads across supersteps are
// served from memory).
func TestCacheParity(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	progs := []vc.Program{&apps.PageRank{}, &apps.BFS{Source: 0}, &apps.CDLP{}}
	for _, prog := range progs {
		opts := engine.Options{MaxSupersteps: 5}

		cold, err := Prepare(ds, EnvOptions{CacheMB: -1})
		if err != nil {
			t.Fatal(err)
		}
		coldRep, coldVals, err := cold.Run(prog, opts)
		if err != nil {
			t.Fatalf("%s uncached: %v", prog.Name(), err)
		}

		warm, err := Prepare(ds, EnvOptions{CacheMB: 8})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cache == nil {
			t.Fatal("CacheMB: 8 attached no cache")
		}
		warmRep, warmVals, err := warm.Run(prog, opts)
		if err != nil {
			t.Fatalf("%s cached: %v", prog.Name(), err)
		}

		if len(coldVals) != len(warmVals) {
			t.Fatalf("%s: value count %d != %d", prog.Name(), len(warmVals), len(coldVals))
		}
		for v := range coldVals {
			if coldVals[v] != warmVals[v] {
				t.Fatalf("%s: value[%d] = %d cached, %d uncached", prog.Name(), v, warmVals[v], coldVals[v])
			}
		}
		if warmRep.CacheHits == 0 {
			t.Errorf("%s: cached run recorded no hits", prog.Name())
		}
		if warmRep.PagesRead >= coldRep.PagesRead {
			t.Errorf("%s: cached run read %d device pages, uncached %d — cache saved nothing",
				prog.Name(), warmRep.PagesRead, coldRep.PagesRead)
		}
	}
}

// TestCacheParityBaselines runs the baseline engines cached and uncached:
// they must see the same results-and-fewer-reads contract.
func TestCacheParityBaselines(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	prog := &apps.PageRank{}
	for _, kind := range []engine.Kind{engine.GraphChi, engine.GraFBoost} {
		name := kind.String()
		opts := engine.Options{Engine: kind, MaxSupersteps: 5}
		cold, err := Prepare(ds, EnvOptions{CacheMB: -1})
		if err != nil {
			t.Fatal(err)
		}
		coldRep, coldVals, err := cold.Run(prog, opts)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		warm, err := Prepare(ds, EnvOptions{CacheMB: 8})
		if err != nil {
			t.Fatal(err)
		}
		warmRep, warmVals, err := warm.Run(prog, opts)
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		for v := range coldVals {
			if coldVals[v] != warmVals[v] {
				t.Fatalf("%s: value[%d] = %d cached, %d uncached", name, v, warmVals[v], coldVals[v])
			}
		}
		if warmRep.PagesRead >= coldRep.PagesRead {
			t.Errorf("%s: cached run read %d device pages, uncached %d", name, warmRep.PagesRead, coldRep.PagesRead)
		}
	}
}

// TestCacheUnderSweep runs each engine behind a cache holding 40 % of the
// pages it reads again every superstep (its edge files plus its value file).
// The cache must stay a pure performance layer — values bit-identical to the
// uncached run, and for BFS to the in-memory reference — and it must work
// under the superstep sweep: the engines re-read the same pages in the same
// order every superstep, the pattern on which the CLOCK policy this replaced
// hit one read in ten (0.105 on the BFS below). Page counts are
// deterministic: the baselines are held to what CLOCK read on these exact
// runs, and MultiLogVC below what it read while message-log pages — read
// once, then truncated — still took frames from the CSR (13,960 at
// 0b35599).
func TestCacheUnderSweep(t *testing.T) {
	const side = 304
	edges, err := gen.SmallWorld(side, side, side*side/128, 0x5EE9)
	if err != nil {
		t.Fatal(err)
	}
	ds := Dataset{Name: "sweep-sw", Edges: edges, N: side * side}
	cold, err := Prepare(ds, EnvOptions{CacheMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	valuePages := (4*int(ds.N) + cold.PageSize - 1) / cold.PageSize

	type runFn func(*Env, vc.Program, engine.Options) (*metrics.Report, []uint32, error)
	on := func(k engine.Kind) runFn {
		return func(env *Env, prog vc.Program, o engine.Options) (*metrics.Report, []uint32, error) {
			o.Engine = k
			return env.Run(prog, o)
		}
	}
	bfs := func() vc.Program { return &apps.BFS{Source: 0} }
	pagerank := func() vc.Program { return &apps.PageRank{} }
	// bare builds the engine from a core.Config holding only the budget
	// and the step cap: none of the harness's run options. The row keeps
	// the name it had while the harness run also prefetched.
	bare := func(env *Env, prog vc.Program, o engine.Options) (*metrics.Report, []uint32, error) {
		res, err := core.New(env.Graph, core.Config{MemoryBudget: env.MemBudget, MaxSupersteps: o.MaxSupersteps, StopAfter: o.StopAfter}).Run(prog)
		if err != nil {
			return nil, nil, err
		}
		return res.Report, res.Values, nil
	}
	for _, tc := range []struct {
		name       string
		run        runFn
		prog       func() vc.Program
		steps      int
		edgeFiles  string // what the names of the engine's edge files contain
		minHitRate float64
		maxPages   uint64 // the most device reads allowed
	}{
		{"multilogvc/bfs", on(engine.MultiLog), bfs, 200, ".out.", 0.35, 13959},
		{"multilogvc/bfs/no-prefetch", bare, bfs, 200, ".out.", 0.35, 13959},
		{"graphchi/pagerank", on(engine.GraphChi), pagerank, 5, ".gc.shard", 0, 11271},
		{"grafboost/pagerank", on(engine.GraFBoost), pagerank, 5, ".out.", 0, 9144},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// GraphChi builds its shards per run, so the edge files are
			// counted while the uncached run has them open.
			dataPages := valuePages
			coldRep, want, err := tc.run(cold, tc.prog(), engine.Options{MaxSupersteps: tc.steps,
				StopAfter: func(step int, _ uint64) bool {
					if step > 0 {
						return false
					}
					for _, name := range cold.Dev.ListFiles() {
						if !strings.Contains(name, tc.edgeFiles) {
							continue
						}
						f, err := cold.Dev.OpenFile(name)
						if err != nil {
							t.Error(err)
							continue
						}
						dataPages += f.NumPages()
					}
					return false
				}})
			if err != nil {
				t.Fatal(err)
			}
			// Prepare sizes caches in MiB; this one is sized in pages and
			// attached between the build and the run, empty.
			warm, err := Prepare(ds, EnvOptions{CacheMB: -1})
			if err != nil {
				t.Fatal(err)
			}
			warm.Cache = pagecache.New(dataPages*2/5, warm.PageSize)
			warm.Dev.AttachCache(warm.Cache)
			rep, got, err := tc.run(warm, tc.prog(), engine.Options{MaxSupersteps: tc.steps})
			if err != nil {
				t.Fatal(err)
			}

			if !slices.Equal(got, want) {
				t.Fatal("cached run's values differ from the uncached run's")
			}
			if strings.HasPrefix(tc.name, "multilogvc/") {
				ref := vc.NewRef(ds.Edges, ds.N).Run(tc.prog(), tc.steps)
				if !slices.Equal(got, ref.Values) {
					t.Fatal("cached run's values differ from the reference engine's")
				}
			}
			t.Logf("%d frames for %d pages, %d supersteps: hit rate %.3f, pages read %d cached, %d uncached",
				warm.Cache.CapacityPages(), dataPages, len(rep.Supersteps), rep.CacheHitRate(), rep.PagesRead, coldRep.PagesRead)
			if rep.CacheHitRate() < tc.minHitRate {
				t.Errorf("hit rate %.3f, want at least %.2f", rep.CacheHitRate(), tc.minHitRate)
			}
			if rep.PagesRead >= coldRep.PagesRead {
				t.Errorf("cached run read %d pages, uncached %d: the cache saved nothing", rep.PagesRead, coldRep.PagesRead)
			}
			if rep.PagesRead > tc.maxPages {
				t.Errorf("read %d pages, more than the %d this run may read", rep.PagesRead, tc.maxPages)
			}
		})
	}
}
