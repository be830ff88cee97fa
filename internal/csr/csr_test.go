package csr

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

func testDev(t *testing.T) *ssd.Device {
	t.Helper()
	return ssd.MustOpen(ssd.Config{PageSize: 256, Channels: 4})
}

// the example graph from the paper's Fig 1 (1-indexed there; 0-indexed
// here): edges 3->1, 6->1, 1->2, 3->2, 6->2, 6->3, 6->4, 6->5 become
// 2->0, 5->0, 0->1, 2->1, 5->1, 5->2, 5->3, 5->4.
func paperEdges() []graphio.Edge {
	return []graphio.Edge{
		{Src: 2, Dst: 0}, {Src: 5, Dst: 0},
		{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 5, Dst: 1},
		{Src: 5, Dst: 2}, {Src: 5, Dst: 3}, {Src: 5, Dst: 4},
	}
}

func TestPartition(t *testing.T) {
	inDeg := []uint32{10, 10, 10, 10}
	// Budget of 2 vertices' worth of messages.
	ivs := Partition(inDeg, 12, 2*10*12)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %v, want 2", ivs)
	}
	if ivs[0] != (Interval{0, 2}) || ivs[1] != (Interval{2, 4}) {
		t.Fatalf("intervals = %v", ivs)
	}
}

func TestPartitionHugeVertex(t *testing.T) {
	// A single vertex exceeding the budget still gets an interval.
	inDeg := []uint32{1000, 1, 1}
	ivs := Partition(inDeg, 12, 100)
	if len(ivs) == 0 || ivs[0].Len() != 1 {
		t.Fatalf("intervals = %v, want first interval of 1 vertex", ivs)
	}
	// Coverage is complete and contiguous.
	var v uint32
	for _, iv := range ivs {
		if iv.Lo != v {
			t.Fatalf("gap at %d: %v", v, ivs)
		}
		v = iv.Hi
	}
	if v != 3 {
		t.Fatalf("coverage ends at %d", v)
	}
}

func TestPartitionEmpty(t *testing.T) {
	if ivs := Partition(nil, 12, 100); ivs != nil {
		t.Fatalf("empty partition = %v", ivs)
	}
}

func TestIntervalIndex(t *testing.T) {
	ivs := []Interval{{0, 5}, {5, 1000}, {1000, 1001}}
	idx := NewIntervalIndex(ivs, 1001)
	cases := []struct {
		v    uint32
		want int
	}{{0, 0}, {4, 0}, {5, 1}, {999, 1}, {1000, 2}}
	for _, c := range cases {
		if got := idx.Of(c.v); got != c.want {
			t.Errorf("Of(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Property: interval index agrees with linear search for random partitions.
func TestQuickIntervalIndex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(5000) + 10)
		deg := make([]uint32, n)
		for i := range deg {
			deg[i] = uint32(rng.Intn(20))
		}
		ivs := Partition(deg, 12, int64(rng.Intn(2000)+50))
		idx := NewIntervalIndex(ivs, n)
		for k := 0; k < 50; k++ {
			v := uint32(rng.Intn(int(n)))
			want := -1
			for i, iv := range ivs {
				if iv.Contains(v) {
					want = i
					break
				}
			}
			if idx.Of(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndLoadPaperGraph(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "paper", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 8 {
		t.Fatalf("NumEdges = %d, want 8", g.NumEdges())
	}

	wantOut := map[uint32][]uint32{
		0: {1}, 1: {}, 2: {0, 1}, 3: {}, 4: {}, 5: {0, 1, 2, 3, 4},
	}
	wantIn := map[uint32][]uint32{
		0: {2, 5}, 1: {0, 2, 5}, 2: {5}, 3: {5}, 4: {5}, 5: {},
	}
	checkAdjacency(t, g, wantOut, wantIn)
}

// fillInterval fills a with every list of interval iv on side (0 out, 1 in),
// weighted on a weighted graph, and returns the interval's vertices: list i
// is vertex verts[i]'s.
func fillInterval(t testing.TB, g *Graph, side uint8, iv int, a *Arena) (verts []uint32, stats LoadStats) {
	t.Helper()
	verts = g.Intervals()[iv].AppendVerts(nil)
	a.Reset(len(verts), g.HasWeights())
	stats, err := g.fill(side, iv, verts, nil, a)
	if err != nil {
		t.Fatalf("fill side %d interval %d: %v", side, iv, err)
	}
	return verts, stats
}

// outDegree returns v's current out-degree, pending deltas included.
func outDegree(g *Graph, v uint32) (uint32, error) {
	var deg uint32
	_, err := g.LoadOutEdges(g.IntervalOf(v), []uint32{v}, func(_ uint32, nbrs []uint32) { deg = uint32(len(nbrs)) })
	return deg, err
}

func checkAdjacency(t *testing.T, g *Graph, wantOut, wantIn map[uint32][]uint32) {
	t.Helper()
	for iv := range g.Intervals() {
		check := func(loadName string, want map[uint32][]uint32, side uint8) {
			var a Arena
			verts, _ := fillInterval(t, g, side, iv, &a)
			for i, v := range verts {
				w := want[v]
				gv := slices.Clone(a.Edges(i))
				if len(w) != len(gv) {
					t.Fatalf("%s(%d) = %v, want %v", loadName, v, gv, w)
				}
				slices.Sort(gv)
				slices.Sort(w)
				for i := range w {
					if gv[i] != w[i] {
						t.Fatalf("%s(%d) = %v, want %v", loadName, v, gv, w)
					}
				}
			}
		}
		check("out", wantOut, 0)
		check("in", wantIn, 1)
	}
}

func TestBuildIsolatedTrailingVertices(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "iso", []graphio.Edge{{Src: 0, Dst: 1}}, BuildOptions{NumVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	deg, err := outDegree(g, 9)
	if err != nil || deg != 0 {
		t.Fatalf("isolated vertex degree = %d err = %v", deg, err)
	}
}

func TestBuildEmptyFails(t *testing.T) {
	dev := testDev(t)
	if _, err := Build(dev, "empty", nil, BuildOptions{}); err == nil {
		t.Fatal("empty build should fail")
	}
}

func TestOpenMissing(t *testing.T) {
	dev := testDev(t)
	if _, err := Open(dev, "nope"); err == nil {
		t.Fatal("Open of missing graph should fail")
	}
}

func TestRemove(t *testing.T) {
	dev := testDev(t)
	if _, err := Build(dev, "g", paperEdges(), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	before := len(dev.ListFiles())
	if before == 0 {
		t.Fatal("no files created")
	}
	if err := Remove(dev, "g"); err != nil {
		t.Fatal(err)
	}
	if n := len(dev.ListFiles()); n != 0 {
		t.Fatalf("%d files remain after Remove: %v", n, dev.ListFiles())
	}
}

// TestRemoveDropsIngestFiles pins that Remove deletes the graph's WAL and
// merge files too: a graph rebuilt under the same name must not replay the
// removed graph's acknowledged mutations.
func TestRemoveDropsIngestFiles(t *testing.T) {
	dev := testDev(t)
	base := []graphio.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	if _, err := Build(dev, "g", base, BuildOptions{NumVertices: 8}); err != nil {
		t.Fatal(err)
	}
	g, err := OpenIngest(dev, "g", IngestOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Src: 5, Dst: 6}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := g.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	if err := Remove(dev, "g"); err != nil {
		t.Fatal(err)
	}
	if files := dev.ListFiles(); len(files) != 0 {
		t.Fatalf("files remain after Remove: %v", files)
	}
	if _, err := Build(dev, "g", base, BuildOptions{NumVertices: 8}); err != nil {
		t.Fatal(err)
	}
	g, err = OpenIngest(dev, "g", IngestOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	edges, err := g.CurrentEdges()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != len(base) {
		t.Fatalf("rebuilt graph has edges %v, want %v", edges, base)
	}
}

func TestLoadOutEdgesWrongInterval(t *testing.T) {
	dev := testDev(t)
	g, _ := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if len(g.Intervals()) < 2 {
		t.Skip("graph built with one interval")
	}
	_, err := g.LoadOutEdges(0, []uint32{g.Intervals()[1].Lo}, func(uint32, []uint32) {})
	if err == nil {
		t.Fatal("loading a vertex from the wrong interval should fail")
	}
}

func TestSelectiveLoadingReadsFewerPages(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 4096, Channels: 4})
	edges, err := gen.RMAT(gen.DefaultRMAT(12, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(dev, "g", edges, BuildOptions{IntervalBudget: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}

	// Load all vertices of interval 0, then just one vertex: the single
	// vertex load must touch far fewer colidx pages.
	interval := g.Intervals()[0]
	var all []uint32
	for v := interval.Lo; v < interval.Hi; v++ {
		all = append(all, v)
	}
	full, err := g.LoadOutEdges(0, all, func(uint32, []uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	single, err := g.LoadOutEdges(0, all[:1], func(uint32, []uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if single.ColIdxPages >= full.ColIdxPages {
		t.Fatalf("selective load read %d pages, full load %d", single.ColIdxPages, full.ColIdxPages)
	}
}

func TestPageUtilizationAccounting(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 4096, Channels: 4})
	// 100 vertices in a chain: each has 1-2 edges; all edges fit on page 0.
	edges, _ := gen.Grid(1, 100)
	g, err := Build(dev, "g", edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Loading one low-degree vertex uses only a few bytes of the page.
	stats, err := g.LoadOutEdges(0, []uint32{50}, func(uint32, []uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PageUtils) != 1 {
		t.Fatalf("PageUtils = %v, want 1 page", stats.PageUtils)
	}
	u := stats.PageUtils[0]
	if u.UsedBytes != 8 { // degree 2 × 4 bytes
		t.Fatalf("UsedBytes = %d, want 8", u.UsedBytes)
	}
	if u.Key.Side != 0 || u.Key.Interval != 0 {
		t.Fatalf("PageKey = %+v", u.Key)
	}
}

// Property: CSR round-trips random edge lists exactly (both sides).
func TestQuickBuildRoundTrip(t *testing.T) {
	cnt := 0
	f := func(seed int64) bool {
		cnt++
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(60) + 2)
		m := rng.Intn(300)
		edges := make([]graphio.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graphio.Edge{
				Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n))),
			})
		}
		edges = graphio.Dedup(edges)
		if len(edges) == 0 {
			return true
		}
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
		g, err := Build(dev, "q", edges, BuildOptions{
			NumVertices:    n,
			IntervalBudget: int64(rng.Intn(500) + 24),
		})
		if err != nil {
			return false
		}
		got, err := g.CurrentEdges()
		if err != nil || len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValues(t *testing.T) {
	dev := testDev(t)
	vv, err := CreateValues(dev, "vals", 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	all, err := vv.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		if v != 7 {
			t.Fatalf("init value[%d] = %d", i, v)
		}
	}
	// Unaligned store crossing a page boundary (page = 64 values).
	storeRange(t, vv, 62, []uint32{1, 2, 3, 4, 5})
	got, err := vv.LoadRange(60, 70)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{7, 7, 1, 2, 3, 4, 5, 7, 7, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LoadRange = %v, want %v", got, want)
		}
	}
	if _, err := vv.LoadRange(90, 101); err == nil {
		t.Fatal("out-of-range load should fail")
	}
	if _, err := vv.LoadRange(5, 5); err != nil {
		t.Fatal("empty range should succeed")
	}
}

// storeRange writes vals to slots [lo, lo+len(vals)) through a value batch.
func storeRange(t *testing.T, vv *Values, lo uint32, vals []uint32) {
	t.Helper()
	verts := make([]uint32, len(vals))
	for i := range verts {
		verts[i] = lo + uint32(i)
	}
	b, _, err := vv.LoadForVerts(verts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		b.Set(verts[i], v)
	}
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Property: stores through a value batch and LoadRange behave like an
// in-memory array.
func TestQuickValues(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
	const n = 500
	vv, err := CreateValues(dev, "vals", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]uint32, n)
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 50; round++ {
		lo := uint32(rng.Intn(n))
		l := rng.Intn(n - int(lo))
		vals := make([]uint32, l)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		storeRange(t, vv, lo, vals)
		copy(ref[lo:], vals)
		qlo := uint32(rng.Intn(n))
		qhi := qlo + uint32(rng.Intn(n-int(qlo)))
		got, err := vv.LoadRange(qlo, qhi)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != ref[qlo+uint32(i)] {
				t.Fatalf("round %d: value[%d] = %d, want %d", round, qlo+uint32(i), got[i], ref[qlo+uint32(i)])
			}
		}
	}
}

func TestAuxBatch(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if err != nil {
		t.Fatal(err)
	}
	aux, err := CreateAux(g, "labels", 42)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1 has in-edges from 0, 2, 5 (3 entries).
	iv := g.IntervalOf(1)
	b, stats, err := aux.LoadBatch(iv, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowPtrPages == 0 {
		t.Fatal("no rowptr pages read")
	}
	s := b.Get(1)
	if len(s) != 3 {
		t.Fatalf("aux slice len = %d, want 3", len(s))
	}
	for _, v := range s {
		if v != 42 {
			t.Fatalf("aux init = %v", s)
		}
	}
	s[0], s[1], s[2] = 10, 20, 30
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	b2, _, err := aux.LoadBatch(iv, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	s2 := b2.Get(1)
	if s2[0] != 10 || s2[1] != 20 || s2[2] != 30 {
		t.Fatalf("aux after flush = %v", s2)
	}
	if b2.Get(99) != nil {
		t.Fatal("Get of absent vertex should be nil")
	}
}

func TestAuxEmptyBatch(t *testing.T) {
	dev := testDev(t)
	g, _ := Build(dev, "g", paperEdges(), BuildOptions{})
	aux, err := CreateAux(g, "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := aux.LoadBatch(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.Flush(); err != nil || n != 0 {
		t.Fatalf("empty flush wrote %d pages, err %v", n, err)
	}
}

func TestStructuralUpdates(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if err != nil {
		t.Fatal(err)
	}
	// Add 4->5 and remove 5->0; reads must reflect both immediately.
	if err := g.ApplyMutations([]Mutation{{Src: 4, Dst: 5}}, 1000); err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Del: true, Src: 5, Dst: 0}}, 1000); err != nil {
		t.Fatal(err)
	}
	if g.PendingUpdates() == 0 {
		t.Fatal("updates not pending")
	}
	wantOut := map[uint32][]uint32{
		0: {1}, 1: {}, 2: {0, 1}, 3: {}, 4: {5}, 5: {1, 2, 3, 4},
	}
	wantIn := map[uint32][]uint32{
		0: {2}, 1: {0, 2, 5}, 2: {5}, 3: {5}, 4: {5}, 5: {4},
	}
	checkAdjacency(t, g, wantOut, wantIn)

	// Merge everything; reads must still agree and deltas are gone.
	for iv := range g.Intervals() {
		if err := g.MergeInterval(iv); err != nil {
			t.Fatal(err)
		}
	}
	if g.PendingUpdates() != 0 {
		t.Fatalf("pending after merge = %d", g.PendingUpdates())
	}
	if g.Merges() == 0 {
		t.Fatal("merge count not recorded")
	}
	checkAdjacency(t, g, wantOut, wantIn)
	if g.NumEdges() != 8 {
		t.Fatalf("NumEdges after merge = %d, want 8", g.NumEdges())
	}
}

func TestStructuralUpdateThresholdTriggersMerge(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := g.ApplyMutations([]Mutation{{Src: 3, Dst: uint32(i)}}, 4); err != nil {
			t.Fatal(err)
		}
	}
	if g.Merges() == 0 {
		t.Fatal("threshold did not trigger a merge")
	}
	deg, err := outDegree(g, 3)
	if err != nil || deg != 3 {
		t.Fatalf("degree after merged adds = %d, err %v", deg, err)
	}
}

func TestAddRemoveCancel(t *testing.T) {
	dev := testDev(t)
	g, _ := Build(dev, "g", paperEdges(), BuildOptions{})
	g.ApplyMutations([]Mutation{{Src: 0, Dst: 3}}, 1000)
	g.ApplyMutations([]Mutation{{Del: true, Src: 0, Dst: 3}}, 1000) // cancels the pending add
	deg, err := outDegree(g, 0)
	if err != nil || deg != 1 {
		t.Fatalf("degree = %d, want 1 (add cancelled)", deg)
	}
	g.ApplyMutations([]Mutation{{Del: true, Src: 0, Dst: 1}}, 1000)
	g.ApplyMutations([]Mutation{{Src: 0, Dst: 1}}, 1000) // cancels the pending remove
	deg, err = outDegree(g, 0)
	if err != nil || deg != 1 {
		t.Fatalf("degree = %d, want 1 (remove cancelled)", deg)
	}
}

func TestStructuralUpdateOutOfRange(t *testing.T) {
	dev := testDev(t)
	g, _ := Build(dev, "g", paperEdges(), BuildOptions{})
	if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 100}}, 0); err == nil {
		t.Fatal("out-of-range AddEdge should fail")
	}
	if err := g.ApplyMutations([]Mutation{{Del: true, Src: 100, Dst: 0}}, 0); err == nil {
		t.Fatal("out-of-range DelEdge should fail")
	}
}

// Property: a random sequence of adds/removes with random merges matches a
// reference adjacency set.
func TestQuickStructuralUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
		base := []graphio.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
		g, err := Build(dev, "q", base, BuildOptions{NumVertices: 8, IntervalBudget: 48})
		if err != nil {
			return false
		}
		ref := map[graphio.Edge]bool{}
		for _, e := range base {
			ref[e] = true
		}
		for step := 0; step < 40; step++ {
			src := uint32(rng.Intn(8))
			dst := uint32(rng.Intn(8))
			e := graphio.Edge{Src: src, Dst: dst}
			if rng.Intn(2) == 0 {
				if !ref[e] {
					if err := g.ApplyMutations([]Mutation{{Src: src, Dst: dst}}, 1000); err != nil {
						return false
					}
					ref[e] = true
				}
			} else if ref[e] {
				if err := g.ApplyMutations([]Mutation{{Del: true, Src: src, Dst: dst}}, 1000); err != nil {
					return false
				}
				delete(ref, e)
			}
			if rng.Intn(10) == 0 {
				if err := g.MergeInterval(rng.Intn(len(g.Intervals()))); err != nil {
					return false
				}
			}
		}
		got, err := g.CurrentEdges()
		if err != nil || len(got) != len(ref) {
			return false
		}
		for _, e := range got {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedBuildRoundTrip(t *testing.T) {
	wedges := []graphio.WeightedEdge{
		{Src: 0, Dst: 1, Weight: 10}, {Src: 0, Dst: 2, Weight: 20},
		{Src: 2, Dst: 0, Weight: 30}, {Src: 1, Dst: 2, Weight: 40},
	}
	dev := testDev(t)
	g, err := BuildWeighted(dev, "w", wedges, BuildOptions{IntervalBudget: 24})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasWeights() {
		t.Fatal("HasWeights false")
	}
	want := map[[2]uint32]uint32{}
	for _, e := range wedges {
		want[[2]uint32{e.Src, e.Dst}] = e.Weight
	}
	for iv := range g.Intervals() {
		var a Arena
		verts, stats := fillInterval(t, g, 0, iv, &a)
		for i, v := range verts {
			nbrs, weights := a.Edges(i), a.Weights(i)
			if len(weights) != len(nbrs) {
				t.Fatalf("weights len %d != nbrs %d", len(weights), len(nbrs))
			}
			for i, nb := range nbrs {
				if weights[i] != want[[2]uint32{v, nb}] {
					t.Fatalf("weight(%d,%d) = %d, want %d", v, nb, weights[i], want[[2]uint32{v, nb}])
				}
				delete(want, [2]uint32{v, nb})
			}
		}
		if len(verts) > 0 && stats.ValPages == 0 {
			t.Fatal("no val pages accounted")
		}
	}
	if len(want) != 0 {
		t.Fatalf("edges not served: %v", want)
	}
}

// Parallel edges keep their input order on both sides: weights are input
// indexes, so each side's weights must come out as a stable sort of the
// input by that side's key would order them.
func TestWeightedBuildKeepsParallelEdgesInInputOrder(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(2))
	wedges := make([]graphio.WeightedEdge, 300)
	for i := range wedges {
		wedges[i] = graphio.WeightedEdge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: uint32(i)}
	}
	g, err := BuildWeighted(testDev(t), "w", wedges, BuildOptions{IntervalBudget: 40 * MsgBytes})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Intervals()) < 2 {
		t.Fatalf("%d intervals, want at least 2", len(g.Intervals()))
	}
	wantOut := make([][]uint32, n) // per vertex: neighbour, weight, ...
	wantIn := make([][]uint32, n)
	bySrc := slices.Clone(wedges)
	slices.SortStableFunc(bySrc, func(a, b graphio.WeightedEdge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	for _, e := range bySrc {
		wantOut[e.Src] = append(wantOut[e.Src], e.Dst, e.Weight)
	}
	byDst := slices.Clone(wedges)
	slices.SortStableFunc(byDst, func(a, b graphio.WeightedEdge) int {
		return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
	for _, e := range byDst {
		wantIn[e.Dst] = append(wantIn[e.Dst], e.Src, e.Weight)
	}
	seen := 0
	for iv := range g.Intervals() {
		for side := range uint8(2) {
			want := [][][]uint32{wantOut, wantIn}[side]
			var a Arena
			verts, _ := fillInterval(t, g, side, iv, &a)
			for i, v := range verts {
				seen++
				var got []uint32
				for j, id := range a.Edges(i) {
					got = append(got, id, a.Weights(i)[j])
				}
				if !slices.Equal(got, want[v]) {
					t.Errorf("side %d vertex %d: (id, weight) = %v, want %v", side, v, got, want[v])
				}
			}
		}
	}
	if seen != 2*n {
		t.Fatalf("visited %d vertex lists, want %d", seen, 2*n)
	}
}

// Property: weighted CSR round-trips random weighted edge lists through
// build + full load, including in-side weights.
func TestQuickWeightedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(40) + 2)
		m := rng.Intn(200)
		var wedges []graphio.WeightedEdge
		for i := 0; i < m; i++ {
			wedges = append(wedges, graphio.WeightedEdge{
				Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n))),
				Weight: rng.Uint32() % 100,
			})
		}
		wedges = graphio.DedupWeighted(wedges)
		if len(wedges) == 0 {
			return true
		}
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
		g, err := BuildWeighted(dev, "q", wedges, BuildOptions{
			NumVertices: n, IntervalBudget: int64(rng.Intn(500) + 24),
		})
		if err != nil {
			return false
		}
		wantOut := map[[2]uint32]uint32{}
		wantIn := map[[2]uint32]uint32{}
		for _, e := range wedges {
			wantOut[[2]uint32{e.Src, e.Dst}] = e.Weight
			wantIn[[2]uint32{e.Dst, e.Src}] = e.Weight
		}
		ok := true
		for iv := range g.Intervals() {
			for side, want := range []map[[2]uint32]uint32{wantOut, wantIn} {
				var a Arena
				verts, _ := fillInterval(t, g, uint8(side), iv, &a)
				for i, v := range verts {
					for j, nb := range a.Edges(i) {
						if a.Weights(i)[j] != want[[2]uint32{v, nb}] {
							ok = false
						}
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReopenFromAdoptedDevice(t *testing.T) {
	dir := t.TempDir()
	// Build on a disk-backed device.
	{
		dev := ssd.MustOpen(ssd.Config{PageSize: 256, Channels: 2, Dir: dir})
		if _, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12}); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh device over the same directory adopts the files; Open
	// restores logical sizes from the meta file.
	dev := ssd.MustOpen(ssd.Config{PageSize: 256, Channels: 2, Dir: dir})
	g, err := Open(dev, "g")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 8 {
		t.Fatalf("reopened graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	edges, err := g.CurrentEdges()
	if err != nil {
		t.Fatal(err)
	}
	want := paperEdges()
	graphio.SortEdges(want)
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
}
