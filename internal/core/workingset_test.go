package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// idleSets returns how many working sets the stack holds.
func idleSets() int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.sets)
}

// emptyIdle drops every idle working set: the next run starts cold.
func emptyIdle() {
	for idleSets() > 0 {
		popIdle()
	}
}

// A query run on the working set earlier queries left gives what it gives on
// an empty stack: the same values and the same scoped device counters. Each
// side runs the same sequence of queries on its own copy of the serving
// graph, so the shared caches see the same traffic; the cold side empties
// the stack before every query. A query that dies of an armed fault drops
// the set it took.
func TestSlotReuseNeverLeaks(t *testing.T) {
	a, b, warm := []uint32{5, 900, 1500, 77}, []uint32{17}, []uint32{300, 301}
	// A fails four attempts in a row at one page operation, past the retry
	// budget, some way into its run.
	fault := ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{60, 61, 62, 63}}}
	steps := []struct {
		tag     string
		sources []uint32
		fault   bool
	}{{"w", warm, false}, {"a", a, false}, {"b", b, false}, {"a2", a, false}, {"f", a, true}, {"b2", b, false}}
	type outcome struct {
		values []uint32
		stats  ssd.Stats
		err    error
		idle   int64 // the gauge after the query
	}
	gauge := obsv.Live().SlotIdleBytes
	run := func(cold bool) []outcome {
		g := servingGraph(t)
		emptyIdle()
		if gauge.Value() != 0 {
			t.Fatalf("the stack is empty and the gauge reads %d", gauge.Value())
		}
		var out []outcome
		for _, s := range steps {
			if cold {
				emptyIdle()
			}
			if s.fault {
				g.Device().SetFaults(fault)
			}
			res, st, err := serveExec(g, s.tag, s.sources)
			g.Device().SetFaults(ssd.FaultPlan{})
			o := outcome{stats: st, err: err, idle: gauge.Value()}
			if err == nil {
				o.values = res.Values
			}
			out = append(out, o)
		}
		return out
	}
	warmRuns, coldRuns := run(false), run(true)
	for i, s := range steps {
		w, c := warmRuns[i], coldRuns[i]
		if (w.err != nil) != s.fault || (c.err != nil) != s.fault {
			t.Fatalf("%s: errors %v (warm), %v (cold); the fault armed: %v", s.tag, w.err, c.err, s.fault)
		}
		if !reflect.DeepEqual(w.values, c.values) {
			t.Fatalf("%s: values differ after the stack's earlier runs", s.tag)
		}
		if !reflect.DeepEqual(w.stats, c.stats) {
			t.Fatalf("%s: scoped stats differ after the stack's earlier runs:\nwarm %+v\ncold %+v", s.tag, w.stats, c.stats)
		}
		if s.fault && w.idle != 0 {
			t.Fatalf("a failed run left %d idle bytes", w.idle)
		}
		if !s.fault && w.idle == 0 {
			t.Fatalf("%s: a successful run left no working set idle", s.tag)
		}
	}
}

// The serving shape allocates its working set once: a cold execution
// allocates over a MiB, the third execution after it less than a quarter of
// one.
func TestSlotKeepsServingWorkingSet(t *testing.T) {
	const coldFloor, warmCeiling = 1 << 20, 256 << 10
	g := servingGraph(t)
	sources := []uint32{42}
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveRun(t, g, "q", sources)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	serveRun(t, g, "q", sources) // the cache now holds what the query reads
	emptyIdle()
	if cold := allocated(); cold <= coldFloor {
		t.Fatalf("a cold execution allocated %d bytes, want over %d", cold, coldFloor)
	}
	allocated()
	allocated()
	if third := allocated(); third >= warmCeiling {
		t.Fatalf("the third warm execution allocated %d bytes, want under %d (%d bytes idle)", third, warmCeiling, obsv.Live().SlotIdleBytes.Value())
	}
}

// Runs in flight at once each take a set of their own — the one an earlier
// run left, or an empty one — and each gets the right answer. Afterwards the
// stack holds at least one set and at most one per run that was in flight.
func TestSlotSharedByConcurrentRuns(t *testing.T) {
	const runs = 4
	g := servingGraph(t)
	sources := []uint32{9, 640}
	emptyIdle()
	want, _ := serveRun(t, g, "ref", sources)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := serveExec(g, fmt.Sprintf("c%d", i), sources)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res.Values, want.Values) {
				t.Errorf("run %d beside %d others: values differ", i, runs-1)
			}
		}()
	}
	wg.Wait()
	if n := idleSets(); n < 1 || n > runs {
		t.Fatalf("after %d concurrent runs the stack holds %d sets, want 1..%d", runs, n, runs)
	}
}

// No value and no scoped device counter of a run depends on which run left
// its working set: every shape below, run after each other shape, gives
// what it gives on an empty stack. The shapes differ in graph, page size,
// weights, memory budget, worker count, lanes, aux state and model.
func TestWorkingSetLeftByAnyRun(t *testing.T) {
	type shape struct {
		name  string
		graph func() *csr.Graph
		cfg   Config
		prog  func() vc.Program
	}
	rmat := func(scale, ef int, seed int64, ivBudget int64) func() *csr.Graph {
		return func() *csr.Graph {
			edges, n := rmatEdges(t, scale, ef, seed)
			return buildGraph(t, edges, n, ivBudget)
		}
	}
	multiBFS := func() vc.Program {
		p, err := apps.NewMultiBFS([]uint32{1, 50, 300, 700})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	shapes := []shape{
		{"serving", func() *csr.Graph { return servingGraph(t) }, Config{MemoryBudget: servingBudget, Workers: 1},
			func() vc.Program { return &apps.BFS{Source: 42} }},
		{"lanes", rmat(10, 8, 3, 2048), Config{MemoryBudget: 1, Workers: 4}, multiBFS},
		{"pagerank", rmat(11, 8, 5, 1<<16), Config{Workers: 2}, func() vc.Program { return &apps.PageRank{} }},
		{"weighted", func() *csr.Graph { _, _, g := weightedFixture(t, 9, 7); return g }, Config{Workers: 3},
			func() vc.Program { return &apps.SSSP{Source: 0} }},
		{"aux", rmat(9, 8, 11, 2048), Config{Workers: 2}, func() vc.Program { return &apps.CDLP{} }},
		{"async", rmat(10, 8, 13, 4096), Config{Workers: 1, Async: true}, func() vc.Program { return &apps.WCC{} }},
	}
	exec := func(s shape) ([]uint32, ssd.Stats) {
		t.Helper()
		cfg := s.cfg
		cfg.MaxSupersteps, cfg.RunTag, cfg.Ephemeral, cfg.Scope = 30, "q", true, ssd.NewScope()
		res, err := New(s.graph(), cfg).RunCtx(context.Background(), s.prog())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		return res.Values, cfg.Scope.Stats()
	}
	for _, target := range shapes {
		emptyIdle()
		wantVals, wantStats := exec(target)
		for _, before := range shapes {
			if before.name == target.name {
				continue
			}
			emptyIdle()
			exec(before)
			vals, stats := exec(target)
			if !reflect.DeepEqual(vals, wantVals) {
				t.Fatalf("%s after %s: values differ from a cold run", target.name, before.name)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Fatalf("%s after %s: scoped stats differ from a cold run:\nafter %+v\ncold  %+v", target.name, before.name, stats, wantStats)
			}
		}
	}
}
