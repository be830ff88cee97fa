package core

import (
	"strings"
	"sync"
	"testing"

	"multilogvc/internal/apps"

	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

func TestLaneBatchBFSBitIdentical(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 31)
	g := buildGraph(t, edges, n, 2048)
	dev := g.Device()
	sources := []uint32{3, 7, 100, 400, 3} // duplicate source on purpose

	singles := make([][]uint32, len(sources))
	var singlePages uint64
	for i, src := range sources {
		before := dev.Stats()
		res, err := New(g, Config{MaxSupersteps: 50}).Run(&apps.BFS{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = res.Values
		singlePages += dev.Stats().Sub(before).PagesRead
	}

	prog, err := apps.NewMultiBFS(sources)
	if err != nil {
		t.Fatal(err)
	}
	sc := ssd.NewScope()
	res, err := New(g, Config{
		MaxSupersteps: 50, RunTag: "batch", Ephemeral: true, Scope: sc,
	}).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for lane := range sources {
		got := apps.LaneResult(res.Values, len(sources), lane)
		if len(got) != len(singles[lane]) {
			t.Fatalf("lane %d: %d values, want %d", lane, len(got), len(singles[lane]))
		}
		for v := range got {
			if got[v] != singles[lane][v] {
				t.Fatalf("lane %d vertex %d: batched %d != single %d", lane, v, got[v], singles[lane][v])
			}
		}
	}

	// One batched pass must cost fewer device reads than K sequential runs.
	batchPages := sc.Stats().PagesRead
	if batchPages == 0 {
		t.Fatal("scope saw no read traffic; scoping is broken")
	}
	if batchPages >= singlePages {
		t.Fatalf("batched run read %d pages, not fewer than %d sequential", batchPages, singlePages)
	}
	t.Logf("pages read: %d batched vs %d sequential (%.0f%%)",
		batchPages, singlePages, 100*float64(batchPages)/float64(singlePages))

	// Ephemeral: the run's scratch namespace must be gone.
	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.batch.") {
			t.Fatalf("ephemeral run left scratch file %q", name)
		}
	}
}

func TestLaneBatchSSSPBitIdenticalWeighted(t *testing.T) {
	_, _, g := weightedFixture(t, 8, 5)
	sources := []uint32{0, 9, 200}

	singles := make([][]uint32, len(sources))
	for i, src := range sources {
		res, err := New(g, Config{MaxSupersteps: 300}).Run(&apps.SSSP{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = res.Values
	}

	prog, err := apps.NewMultiSSSP(sources)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(g, Config{MaxSupersteps: 300, RunTag: "sbatch", Ephemeral: true}).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for lane := range sources {
		got := apps.LaneResult(res.Values, len(sources), lane)
		for v := range got {
			if got[v] != singles[lane][v] {
				t.Fatalf("lane %d vertex %d: batched %d != single %d", lane, v, got[v], singles[lane][v])
			}
		}
	}
}

func TestLaneBatchBFSCachedParity(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 13)
	g := buildGraph(t, edges, n, 2048)
	dev := g.Device()
	cache := pagecache.NewSharded(256, dev.PageSize(), 4)
	dev.AttachCache(cache)
	sources := []uint32{1, 42, 300, 77}

	singles := make([][]uint32, len(sources))
	for i, src := range sources {
		res, err := New(g, Config{MaxSupersteps: 50, Cache: cache}).Run(&apps.BFS{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = res.Values
	}

	prog, err := apps.NewMultiBFS(sources)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(g, Config{
		MaxSupersteps: 50, Cache: cache,
		RunTag: "cbatch", Ephemeral: true, Scope: ssd.NewScope(),
	}).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for lane := range sources {
		got := apps.LaneResult(res.Values, len(sources), lane)
		for v := range got {
			if got[v] != singles[lane][v] {
				t.Fatalf("lane %d vertex %d: batched %d != single %d", lane, v, got[v], singles[lane][v])
			}
		}
	}
}

// TestConcurrentScopedEngineRuns is the serving shape: two engine runs
// over one resident graph, one shared device and page cache, each with
// its own run tag and IO scope. Under -race this doubles as the cross-run
// interference audit: results must be untouched by the neighbor, and each
// scope must see only its own IO.
func TestConcurrentScopedEngineRuns(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 47)
	g := buildGraph(t, edges, n, 2048)
	dev := g.Device()
	cache := pagecache.NewSharded(128, dev.PageSize(), 4)
	dev.AttachCache(cache)

	// Expected values, computed sequentially first.
	want := make([][]uint32, 2)
	srcs := []uint32{5, 250}
	for i, src := range srcs {
		res, err := New(g, Config{MaxSupersteps: 50}).Run(&apps.BFS{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Values
	}

	scopes := [2]*ssd.IOScope{ssd.NewScope(), ssd.NewScope()}
	got := make([][]uint32, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tag := []string{"qa", "qb"}[i]
			res, err := New(g, Config{
				MaxSupersteps: 50, Cache: cache,
				RunTag: tag, Ephemeral: true, Scope: scopes[i],
			}).Run(&apps.BFS{Source: srcs[i]})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Values
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		for v := range want[i] {
			if got[i][v] != want[i][v] {
				t.Fatalf("run %d vertex %d: %d != %d", i, v, got[i][v], want[i][v])
			}
		}
		if scopes[i].Stats().PagesRead == 0 {
			t.Fatalf("run %d: scope saw no reads", i)
		}
	}
	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.qa.") || strings.HasPrefix(name, "g.qb.") {
			t.Fatalf("scratch file %q survived ephemeral cleanup", name)
		}
	}
}
