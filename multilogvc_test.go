package multilogvc_test

import (
	"path/filepath"
	"testing"

	multilogvc "multilogvc"
)

func buildTestGraph(t *testing.T) *multilogvc.Graph {
	t.Helper()
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	edges, err := multilogvc.RMAT(9, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.BuildGraph("g", edges, multilogvc.GraphOptions{
		NumVertices:  512,
		MemoryBudget: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g := buildTestGraph(t)
	if g.NumVertices() != 512 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.Intervals() < 2 {
		t.Fatalf("edges=%d intervals=%d", g.NumEdges(), g.Intervals())
	}
	res, err := g.Run(multilogvc.NewPageRank(), multilogvc.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 512 {
		t.Fatalf("values = %d", len(res.Values))
	}
	var total float64
	for _, v := range res.Values {
		total += multilogvc.PageRankValue(v)
	}
	if total <= 0 {
		t.Fatal("no rank mass")
	}
	if res.Report.Engine != "multilogvc" {
		t.Fatalf("engine = %s", res.Report.Engine)
	}
}

func TestAllEnginesAgreeViaPublicAPI(t *testing.T) {
	g := buildTestGraph(t)
	bfs := func() multilogvc.Program { return multilogvc.NewBFS(3) }
	base, err := g.Run(bfs(), multilogvc.RunOptions{Engine: multilogvc.EngineMultiLog, MaxSupersteps: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []multilogvc.Engine{multilogvc.EngineGraphChi, multilogvc.EngineGraFBoost} {
		res, err := g.Run(bfs(), multilogvc.RunOptions{Engine: eng, MaxSupersteps: 40})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		for v := range base.Values {
			if res.Values[v] != base.Values[v] {
				t.Fatalf("%v: value[%d] = %d, want %d", eng, v, res.Values[v], base.Values[v])
			}
		}
	}
}

func TestGraFBoostRejectsColoring(t *testing.T) {
	g := buildTestGraph(t)
	if _, err := g.Run(multilogvc.NewColoring(), multilogvc.RunOptions{Engine: multilogvc.EngineGraFBoost}); err == nil {
		t.Fatal("GraFBoost should reject non-combinable programs")
	}
	if _, err := g.Run(multilogvc.NewColoring(), multilogvc.RunOptions{Engine: multilogvc.EngineGraFBoostAdapted, MaxSupersteps: 20}); err != nil {
		t.Fatalf("adapted mode failed: %v", err)
	}
}

func TestParseEngine(t *testing.T) {
	cases := map[string]multilogvc.Engine{
		"":                  multilogvc.EngineMultiLog,
		"mlvc":              multilogvc.EngineMultiLog,
		"multilogvc":        multilogvc.EngineMultiLog,
		"graphchi":          multilogvc.EngineGraphChi,
		"grafboost":         multilogvc.EngineGraFBoost,
		"grafboost-adapted": multilogvc.EngineGraFBoostAdapted,
	}
	for name, want := range cases {
		got, err := multilogvc.ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := multilogvc.ParseEngine("zzz"); err == nil {
		t.Fatal("unknown engine should fail")
	}
	if multilogvc.EngineGraphChi.String() != "graphchi" {
		t.Fatal("String() wrong")
	}
}

func TestStructuralUpdatesViaPublicAPI(t *testing.T) {
	sys, _ := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 2})
	edges := []multilogvc.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	g, err := sys.BuildGraph("g", edges, multilogvc.GraphOptions{NumVertices: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Connect 2 and 3 into the component, then BFS must reach them.
	for _, e := range [][2]uint32{{1, 2}, {2, 1}, {2, 3}, {3, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Run(multilogvc.NewBFS(0), multilogvc.RunOptions{MaxSupersteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[3] != 3 {
		t.Fatalf("depth of 3 = %d, want 3", res.Values[3])
	}
	// The shard baseline sees the update too: it builds its shards from the CSR.
	res, err = g.Run(multilogvc.NewBFS(0), multilogvc.RunOptions{Engine: multilogvc.EngineGraphChi, MaxSupersteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[3] != 3 {
		t.Fatalf("graphchi depth of 3 = %d, want 3", res.Values[3])
	}
	if err := g.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	res, err = g.Run(multilogvc.NewBFS(0), multilogvc.RunOptions{MaxSupersteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[3] != multilogvc.BFSUnvisited {
		t.Fatalf("after removal, depth of 3 = %d, want unvisited", res.Values[3])
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	edges := []multilogvc.Edge{{Src: 0, Dst: 1}, {Src: 5, Dst: 2}}
	for _, name := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := multilogvc.WriteEdgeListFile(path, edges); err != nil {
			t.Fatal(err)
		}
		got, err := multilogvc.ReadEdgeListFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[1] != edges[1] {
			t.Fatalf("%s round trip = %v", name, got)
		}
	}
	if _, err := multilogvc.ReadEdgeListFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestDiskBackedSystem(t *testing.T) {
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{
		PageSize: 512, Channels: 2, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	edges, _ := multilogvc.Grid(8, 8)
	g, err := sys.BuildGraph("grid", edges, multilogvc.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(multilogvc.NewBFS(0), multilogvc.RunOptions{MaxSupersteps: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[63] != 14 {
		t.Fatalf("corner depth = %d, want 14", res.Values[63])
	}
}

func TestMISConstants(t *testing.T) {
	g := buildTestGraph(t)
	res, err := g.Run(multilogvc.NewMIS(1), multilogvc.RunOptions{MaxSupersteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	in, out := 0, 0
	for _, v := range res.Values {
		switch v {
		case multilogvc.MISIn:
			in++
		case multilogvc.MISOut:
			out++
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("MIS degenerate: in=%d out=%d", in, out)
	}
}

func TestDeviceStatsExposed(t *testing.T) {
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	edges, _ := multilogvc.Grid(10, 10)
	g, err := sys.BuildGraph("g", edges, multilogvc.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Device().Stats()
	if _, err := g.Run(multilogvc.NewPageRank(), multilogvc.RunOptions{MaxSupersteps: 3}); err != nil {
		t.Fatal(err)
	}
	after := sys.Device().Stats()
	if after.PagesRead <= before.PagesRead {
		t.Fatal("device stats did not advance")
	}
	if after.StorageTime() <= before.StorageTime() {
		t.Fatal("virtual storage clock did not advance")
	}
}

func TestWeightedGraphPublicAPI(t *testing.T) {
	sys, _ := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 4})
	edges, _ := multilogvc.Grid(6, 6)
	wedges := multilogvc.RandomWeights(edges, 9, 7)
	g, err := sys.BuildWeightedGraph("roads", wedges, multilogvc.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// SSSP must agree across all engines on the weighted graph.
	base, err := g.Run(multilogvc.NewSSSP(0), multilogvc.RunOptions{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []multilogvc.Engine{multilogvc.EngineGraphChi, multilogvc.EngineGraFBoost} {
		res, err := g.Run(multilogvc.NewSSSP(0), multilogvc.RunOptions{Engine: eng, MaxSupersteps: 200})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		for v := range base.Values {
			if res.Values[v] != base.Values[v] {
				t.Fatalf("%v: dist[%d] = %d, want %d", eng, v, res.Values[v], base.Values[v])
			}
		}
	}
	// Weighted distances must differ from hop counts somewhere (weights
	// up to 9 on a grid).
	bfs, err := g.Run(multilogvc.NewBFS(0), multilogvc.RunOptions{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for v := range base.Values {
		if base.Values[v] != bfs.Values[v] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("weighted SSSP identical to BFS; weights not applied")
	}
	// Weighted structural update.
	far := g.NumVertices() - 1
	if err := g.AddWeightedEdge(0, far, 2); err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(multilogvc.NewSSSP(0), multilogvc.RunOptions{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[far] != 2 {
		t.Fatalf("dist after weighted shortcut = %d, want 2", res.Values[far])
	}
}

func TestWCCAndKCorePublicAPI(t *testing.T) {
	sys, _ := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 4})
	edges, _ := multilogvc.RMAT(8, 6, 3)
	g, err := sys.BuildGraph("g", edges, multilogvc.GraphOptions{MemoryBudget: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	wcc, err := g.Run(multilogvc.NewWCC(), multilogvc.RunOptions{MaxSupersteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if wcc.Values[e.Src] != wcc.Values[e.Dst] {
			t.Fatalf("WCC labels differ across edge %v", e)
		}
	}
	kc, err := g.Run(multilogvc.NewKCore(2), multilogvc.RunOptions{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, v := range kc.Values {
		if multilogvc.KCoreMember(v) {
			members++
		}
	}
	if members == 0 {
		t.Fatal("2-core empty on a dense RMAT graph")
	}
}

func TestOpenGraphAcrossProcessesSimulation(t *testing.T) {
	dir := t.TempDir()
	// Process 1: build a weighted graph on a disk-backed device.
	{
		sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 2, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		edges, _ := multilogvc.Grid(8, 8)
		wedges := multilogvc.RandomWeights(edges, 5, 3)
		if _, err := sys.BuildWeightedGraph("persisted", wedges, multilogvc.GraphOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Process 2: a fresh System over the same directory adopts the files.
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.OpenGraph("persisted", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 64 {
		t.Fatalf("reopened vertices = %d", g.NumVertices())
	}
	res, err := g.Run(multilogvc.NewSSSP(0), multilogvc.RunOptions{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Same graph rebuilt in RAM must give the same distances (weights
	// survived persistence).
	ramSys, _ := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 512, Channels: 2})
	edges, _ := multilogvc.Grid(8, 8)
	ramG, err := ramSys.BuildWeightedGraph("ram", multilogvc.RandomWeights(edges, 5, 3), multilogvc.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ramG.Run(multilogvc.NewSSSP(0), multilogvc.RunOptions{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Values {
		if res.Values[v] != want.Values[v] {
			t.Fatalf("persisted dist[%d] = %d, want %d", v, res.Values[v], want.Values[v])
		}
	}
	// GraphChi baseline also works on the reopened graph.
	chi, err := g.Run(multilogvc.NewSSSP(0), multilogvc.RunOptions{Engine: multilogvc.EngineGraphChi, MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Values {
		if chi.Values[v] != want.Values[v] {
			t.Fatalf("graphchi reopened dist[%d] = %d, want %d", v, chi.Values[v], want.Values[v])
		}
	}
	if _, err := sys.OpenGraph("missing", 0); err == nil {
		t.Fatal("OpenGraph of missing graph should fail")
	}
}

func TestNewProgramByName(t *testing.T) {
	for _, name := range multilogvc.ProgramNames() {
		prog, err := multilogvc.NewProgramByName(name, multilogvc.ProgramOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prog.Name() != name {
			t.Fatalf("program %q reports name %q", name, prog.Name())
		}
	}
	if _, err := multilogvc.NewProgramByName("nope", multilogvc.ProgramOptions{}); err == nil {
		t.Fatal("unknown program should fail")
	}
}
