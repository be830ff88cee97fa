package core

import (
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// buildGraph places edges on a fresh small-page device.
func buildGraph(t testing.TB, edges []graphio.Edge, n uint32, ivBudget int64) *csr.Graph {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: n, IntervalBudget: ivBudget})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runBoth executes prog on the MultiLogVC engine and the reference engine
// and asserts identical vertex values.
func runBoth(t *testing.T, edges []graphio.Edge, n uint32, prog vc.Program, maxSteps int, cfg Config) (*superstep.Result, *vc.RefResult) {
	t.Helper()
	g := buildGraph(t, edges, n, 2048)
	cfg.MaxSupersteps = maxSteps
	eng := New(g, cfg)
	got, err := eng.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := vc.NewRef(edges, n).Run(prog, maxSteps)
	if len(got.Values) != len(want.Values) {
		t.Fatalf("value count %d != %d", len(got.Values), len(want.Values))
	}
	diff := 0
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			diff++
			if diff <= 5 {
				t.Errorf("value[%d] = %d, want %d", v, got.Values[v], want.Values[v])
			}
		}
	}
	if diff > 0 {
		t.Fatalf("%d/%d values differ from reference", diff, len(want.Values))
	}
	return got, want
}

func rmatEdges(t testing.TB, scale, ef int, seed int64) ([]graphio.Edge, uint32) {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return edges, uint32(1 << scale)
}

func TestEngineBFSGrid(t *testing.T) {
	edges, _ := gen.Grid(12, 12)
	runBoth(t, edges, 144, &apps.BFS{Source: 0}, 60, Config{})
}

func TestEngineColoringMatchesReference(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 19)
	res, _ := runBoth(t, edges, n, &apps.Coloring{}, 40, Config{})
	for _, e := range edges {
		if e.Src != e.Dst && res.Values[e.Src] == res.Values[e.Dst] {
			t.Fatalf("improper coloring on edge %v", e)
		}
	}
}

func TestEngineMISMatchesReference(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 23)
	res, _ := runBoth(t, edges, n, &apps.MIS{Seed: 5}, 100, Config{})
	adj := make(map[uint32][]uint32)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	if msg := apps.IsIndependentSet(res.Values, func(v uint32) []uint32 { return adj[v] }); msg != "" {
		t.Fatal(msg)
	}
}

func TestEngineRandomWalkMatchesReference(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 31)
	runBoth(t, edges, n, &apps.RandomWalk{SampleEvery: 16, WalkLength: 8, Seed: 3}, 20, Config{})
}

func TestEngineEdgeLogDisabledSameResults(t *testing.T) {
	edges, n := rmatEdges(t, 8, 8, 41)
	g1 := buildGraph(t, edges, n, 2048)
	r1, err := New(g1, Config{MaxSupersteps: 40}).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildGraph(t, edges, n, 2048)
	r2, err := New(g2, Config{MaxSupersteps: 40, DisableEdgeLog: true}).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Values {
		if r1.Values[v] != r2.Values[v] {
			t.Fatalf("edge log changed results at vertex %d", v)
		}
	}
}

func TestEngineSingleWorkerDeterministic(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 2)
	g1 := buildGraph(t, edges, n, 1024)
	r1, err := New(g1, Config{MaxSupersteps: 15, Workers: 1}).Run(&apps.Coloring{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildGraph(t, edges, n, 1024)
	r2, err := New(g2, Config{MaxSupersteps: 15, Workers: 4}).Run(&apps.Coloring{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Values {
		if r1.Values[v] != r2.Values[v] {
			t.Fatalf("worker count changed results at vertex %d", v)
		}
	}
}

func TestEngineStopAfter(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 13)
	g := buildGraph(t, edges, n, 4096)
	stopped := 0
	cfg := Config{MaxSupersteps: 50, StopAfter: func(step int, cum uint64) bool {
		stopped = step
		return step >= 2
	}}
	res, err := New(g, cfg).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Supersteps) != 3 {
		t.Fatalf("ran %d supersteps, want 3", len(res.Report.Supersteps))
	}
	if stopped != 2 {
		t.Fatalf("StopAfter last called with step %d", stopped)
	}
}

func TestEngineReportAccounting(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 17)
	g := buildGraph(t, edges, n, 4096)
	res, err := New(g, Config{MaxSupersteps: 15}).Run(&apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Engine != "multilogvc" || rep.App != "pagerank" {
		t.Fatalf("report identity: %s/%s", rep.Engine, rep.App)
	}
	if rep.PagesRead == 0 || rep.PagesWritten == 0 {
		t.Fatalf("no IO recorded: %+v", rep)
	}
	if rep.StorageTime <= 0 || rep.ComputeTime <= 0 {
		t.Fatalf("times not recorded: storage=%v compute=%v", rep.StorageTime, rep.ComputeTime)
	}
	if rep.Supersteps[0].Active != uint64(n) {
		t.Fatalf("superstep 0 active = %d, want %d", rep.Supersteps[0].Active, n)
	}
	// Activity must shrink for PageRank.
	last := rep.Supersteps[len(rep.Supersteps)-1]
	if last.Active >= rep.Supersteps[0].Active {
		t.Fatalf("active did not shrink: first=%d last=%d", rep.Supersteps[0].Active, last.Active)
	}
}

func TestEngineActiveOnlyReadsFewerPagesThanFullScan(t *testing.T) {
	// With a tiny active set (BFS late supersteps), per-superstep page
	// reads must be far below the whole-graph page count.
	edges, n := rmatEdges(t, 11, 8, 3)
	g := buildGraph(t, edges, n, 1<<16)
	res, err := New(g, Config{MaxSupersteps: 30}).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	graphPages := uint64(0)
	for iv := range g.Intervals() {
		graphPages += uint64(g.Device().PageSize()) // placeholder; compare per-superstep below
		_ = iv
	}
	// The last superstep (empty frontier digestion) must read almost
	// nothing compared to the first full-frontier supersteps.
	ss := res.Report.Supersteps
	if len(ss) < 3 {
		t.Skip("BFS finished too quickly")
	}
	maxRead := uint64(0)
	for _, s := range ss {
		if s.PagesRead > maxRead {
			maxRead = s.PagesRead
		}
	}
	lastRead := ss[len(ss)-1].PagesRead
	if lastRead*2 >= maxRead {
		t.Fatalf("late superstep reads %d pages, peak %d — selective loading broken", lastRead, maxRead)
	}
}

func TestEnginePaperGraph(t *testing.T) {
	// The 6-vertex example from the paper's Fig 1 (0-indexed).
	edges := []graphio.Edge{
		{Src: 2, Dst: 0}, {Src: 5, Dst: 0},
		{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 5, Dst: 1},
		{Src: 5, Dst: 2}, {Src: 5, Dst: 3}, {Src: 5, Dst: 4},
	}
	runBoth(t, edges, 6, &apps.BFS{Source: 5}, 10, Config{})
}

func TestEngineEmptyProgramNoActive(t *testing.T) {
	edges := []graphio.Edge{{Src: 0, Dst: 1}}
	g := buildGraph(t, edges, 2, 1024)
	res, err := New(g, Config{MaxSupersteps: 5}).Run(&noneActive{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Converged || len(res.Report.Supersteps) != 0 {
		t.Fatalf("empty program: %+v", res.Report)
	}
}

type noneActive struct{}

func (noneActive) Name() string                   { return "none" }
func (noneActive) InitValue(v, n uint32) uint32   { return 0 }
func (noneActive) InitActive(n uint32) vc.InitSet { return vc.InitSet{} }
func (noneActive) Process(vc.Context, []vc.Msg)   {}

func TestEngineAsyncConvergesToSameFixpoint(t *testing.T) {
	edges, n := rmatEdges(t, 9, 6, 47)
	gSync := buildGraph(t, edges, n, 2048)
	syncRes, err := New(gSync, Config{MaxSupersteps: 64}).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	gAsync := buildGraph(t, edges, n, 2048)
	// DisableFusing forces one interval per batch so forward delivery
	// across batches actually happens.
	asyncRes, err := New(gAsync, Config{MaxSupersteps: 64, Async: true, DisableFusing: true}).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	for v := range syncRes.Values {
		if asyncRes.Values[v] != syncRes.Values[v] {
			t.Fatalf("async BFS dist[%d] = %d, sync %d", v, asyncRes.Values[v], syncRes.Values[v])
		}
	}
	// Forward delivery within a superstep must not slow convergence.
	if len(asyncRes.Report.Supersteps) > len(syncRes.Report.Supersteps) {
		t.Fatalf("async took %d supersteps, sync %d",
			len(asyncRes.Report.Supersteps), len(syncRes.Report.Supersteps))
	}
}

func TestEngineAsyncWCC(t *testing.T) {
	edges, n := rmatEdges(t, 9, 4, 51)
	gSync := buildGraph(t, edges, n, 2048)
	syncRes, err := New(gSync, Config{MaxSupersteps: 128}).Run(&apps.WCC{})
	if err != nil {
		t.Fatal(err)
	}
	gAsync := buildGraph(t, edges, n, 2048)
	asyncRes, err := New(gAsync, Config{MaxSupersteps: 128, Async: true, DisableFusing: true}).Run(&apps.WCC{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range syncRes.Values {
		if asyncRes.Values[v] != syncRes.Values[v] {
			t.Fatalf("async WCC label[%d] = %d, sync %d", v, asyncRes.Values[v], syncRes.Values[v])
		}
	}
	if len(asyncRes.Report.Supersteps) >= len(syncRes.Report.Supersteps) {
		t.Logf("async %d supersteps, sync %d (forward delivery gave no win on this graph)",
			len(asyncRes.Report.Supersteps), len(syncRes.Report.Supersteps))
	}
}

func TestEngineAsyncActuallyForwards(t *testing.T) {
	// A forward chain across intervals completes in far fewer supersteps
	// under the async model with per-interval batches.
	edges := []graphio.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	g := buildGraph(t, edges, 4, 13) // one vertex per interval (13 bytes > one 12-byte msg)
	if len(g.Intervals()) < 3 {
		t.Fatalf("need one interval per vertex, got %d", len(g.Intervals()))
	}
	res, err := New(g, Config{MaxSupersteps: 64, Async: true, DisableFusing: true}).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[3] != 3 {
		t.Fatalf("dist[3] = %d, want 3", res.Values[3])
	}
	if len(res.Report.Supersteps) > 3 {
		t.Fatalf("async chain took %d supersteps", len(res.Report.Supersteps))
	}
}

// mutationProg drops every vertex's edge to its largest neighbor during
// superstep 0 (via vc.Mutator) and records the remaining out-degree in
// superstep 1.
type mutationProg struct{}

func (mutationProg) Name() string                   { return "mutate" }
func (mutationProg) InitValue(v, n uint32) uint32   { return 0 }
func (mutationProg) InitActive(n uint32) vc.InitSet { return vc.InitSet{All: true} }
func (mutationProg) Process(ctx vc.Context, msgs []vc.Msg) {
	switch ctx.Superstep() {
	case 0:
		out := ctx.OutEdges()
		if len(out) > 1 {
			if m, ok := ctx.(vc.Mutator); ok {
				m.RemoveEdge(ctx.Vertex(), out[len(out)-1])
			}
		}
		// Stay active to observe the mutated graph next superstep.
	case 1:
		ctx.SetValue(uint32(len(ctx.OutEdges())))
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

func TestEngineContextMutation(t *testing.T) {
	edges, n := rmatEdges(t, 7, 5, 91)
	res, _ := runBoth(t, edges, n, mutationProg{}, 5, Config{})
	// Spot check: some vertex lost an edge.
	shrunk := false
	degs := make(map[uint32]uint32)
	for _, e := range edges {
		degs[e.Src]++
	}
	for v, val := range res.Values {
		if d := degs[uint32(v)]; d > 1 && val == d-1 {
			shrunk = true
			break
		}
	}
	if !shrunk {
		t.Fatal("no vertex lost an edge through Context mutation")
	}
}

func TestEngineSelfLoops(t *testing.T) {
	// Self-loops deliver messages back to the sender next superstep.
	edges := []graphio.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}}
	runBoth(t, edges, 2, &apps.PageRank{}, 8, Config{})
}

func TestEngineSingleVertex(t *testing.T) {
	edges := []graphio.Edge{{Src: 0, Dst: 0}}
	runBoth(t, edges, 1, &apps.BFS{Source: 0}, 5, Config{})
}

func TestEngineStarGraph(t *testing.T) {
	// Extreme skew: one hub with n-1 leaves, interval budget smaller than
	// the hub's in-degree (the Partition huge-vertex path).
	var edges []graphio.Edge
	const n = 200
	for i := uint32(1); i < n; i++ {
		edges = append(edges, graphio.Edge{Src: 0, Dst: i}, graphio.Edge{Src: i, Dst: 0})
	}
	g := buildGraph(t, edges, n, 10*12) // hub interval alone exceeds budget
	res, err := New(g, Config{MaxSupersteps: 20}).Run(&apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	ref := vc.NewRef(edges, n).Run(&apps.PageRank{}, 20)
	for v := range ref.Values {
		if res.Values[v] != ref.Values[v] {
			t.Fatalf("value[%d] = %d, ref %d", v, res.Values[v], ref.Values[v])
		}
	}
}

func TestEngineMutationRejectedForAuxPrograms(t *testing.T) {
	edges, n := rmatEdges(t, 6, 4, 3)
	g := buildGraph(t, edges, n, 2048)
	_, err := New(g, Config{MaxSupersteps: 5}).Run(auxMutator{})
	if err == nil {
		t.Fatal("aux program mutating structure should be rejected")
	}
}

// auxMutator is an (invalid) program combining aux state with mutation.
type auxMutator struct{}

func (auxMutator) Name() string                   { return "auxmut" }
func (auxMutator) InitValue(v, n uint32) uint32   { return 0 }
func (auxMutator) InitActive(n uint32) vc.InitSet { return vc.InitSet{All: true} }
func (auxMutator) AuxInit(n uint32) uint32        { return 0 }
func (auxMutator) Process(ctx vc.Context, msgs []vc.Msg) {
	if m, ok := ctx.(vc.Mutator); ok && ctx.Vertex() == 0 {
		m.AddEdge(0, 1, 1)
	}
	ctx.VoteToHalt()
}

func TestEngineEdgeLogActuallyServes(t *testing.T) {
	// Construct conditions where the edge log pays off: a sparse random
	// walk whose sources stay active across supersteps on big pages
	// (heavy read amplification).
	edges, n := rmatEdges(t, 10, 6, 8)
	dev := ssd.MustOpen(ssd.Config{PageSize: 8192, Channels: 4})
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: n, IntervalBudget: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	prog := &apps.RandomWalk{SampleEvery: 64, WalkLength: 12, Seed: 3}
	res, err := New(g, Config{MaxSupersteps: 14}).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	var served, logged uint64
	for i, ss := range res.Report.Supersteps {
		served += ss.EdgeLogPagesRead
		logged += ss.EdgeLogPagesWrite
		// The counter is the pages the generation took on the device: exactly
		// what the relog stage wrote this superstep.
		var relog uint64
		for _, st := range ss.Stages {
			if st.Stage == obsv.StageRelog.String() {
				relog = st.PagesWritten
			}
		}
		if ss.EdgeLogPagesWrite != relog {
			t.Fatalf("superstep %d: EdgeLogPagesWrite = %d, relog stage wrote %d pages", i, ss.EdgeLogPagesWrite, relog)
		}
	}
	if logged == 0 {
		t.Skip("predictor logged nothing on this graph/seed")
	}
	if served == 0 {
		t.Fatalf("edge log was written (%d) but never served reads", logged)
	}
}

func TestEngineTinyBudgetStress(t *testing.T) {
	// A deliberately starved memory budget: many intervals, forced log
	// eviction, multiple fused batches per superstep. Results must still
	// match the reference exactly.
	edges, n := rmatEdges(t, 9, 8, 99)
	for _, prog := range []vc.Program{
		vc.Program(&apps.PageRank{}),
		vc.Program(&apps.CDLP{}),
		vc.Program(&apps.MIS{Seed: 11}),
	} {
		g := buildGraph(t, edges, n, 512) // ~43 msgs worst case per interval
		eng := New(g, Config{MaxSupersteps: 12, MemoryBudget: 8 << 10})
		got, err := eng.Run(prog)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name(), err)
		}
		want := vc.NewRef(edges, n).Run(prog, 12)
		for v := range want.Values {
			if got.Values[v] != want.Values[v] {
				t.Fatalf("%s: value[%d] = %d, want %d", prog.Name(), v, got.Values[v], want.Values[v])
			}
		}
	}
}
