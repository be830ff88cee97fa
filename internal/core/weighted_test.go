package core

import (
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

func weightedFixture(t *testing.T, scale int, seed int64) ([]graphio.WeightedEdge, uint32, *csr.Graph) {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(scale, 6, seed))
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(1 << scale)
	wedges := graphio.AttachWeights(edges, func(s, d uint32) uint32 {
		if s > d {
			s, d = d, s
		}
		return uint32(vc.Hash64(uint64(s), uint64(d))%16) + 1
	})
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	g, err := csr.BuildWeighted(dev, "g", wedges, csr.BuildOptions{NumVertices: n, IntervalBudget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return wedges, n, g
}

func TestEngineSSSPWeightedWithEdgeLogDisabled(t *testing.T) {
	wedges, n, g := weightedFixture(t, 8, 9)
	res, err := New(g, Config{MaxSupersteps: 300, DisableEdgeLog: true}).Run(&apps.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	ref := vc.NewRefWeighted(wedges, n).Run(&apps.SSSP{Source: 0}, 300)
	for v := range ref.Values {
		if res.Values[v] != ref.Values[v] {
			t.Fatalf("dist[%d] = %d, ref %d", v, res.Values[v], ref.Values[v])
		}
	}
}

func TestEngineWCC(t *testing.T) {
	edges, n := rmatEdges(t, 9, 4, 3)
	runBoth(t, edges, n, &apps.WCC{}, 100, Config{})
}

func TestEngineKCore(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 13)
	res, _ := runBoth(t, edges, n, &apps.KCore{K: 3}, 200, Config{})
	in := 0
	for _, v := range res.Values {
		if apps.InCore(v) {
			in++
		}
	}
	if in == 0 || in == len(res.Values) {
		t.Fatalf("degenerate 3-core: %d of %d", in, len(res.Values))
	}
}

func TestWeightedStructuralUpdate(t *testing.T) {
	// Add a weighted shortcut and verify SSSP uses it.
	wedges := []graphio.WeightedEdge{
		{Src: 0, Dst: 1, Weight: 10}, {Src: 1, Dst: 2, Weight: 10},
	}
	dev := ssd.MustOpen(ssd.Config{PageSize: 256, Channels: 2})
	g, err := csr.BuildWeighted(dev, "g", wedges, csr.BuildOptions{NumVertices: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(g, Config{MaxSupersteps: 20}).Run(&apps.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[2] != 20 {
		t.Fatalf("dist before shortcut = %d, want 20", res.Values[2])
	}
	if err := g.ApplyMutations([]csr.Mutation{{Src: 0, Dst: 2, Weight: 3}}, 1000); err != nil {
		t.Fatal(err)
	}
	res, err = New(g, Config{MaxSupersteps: 20}).Run(&apps.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[2] != 3 {
		t.Fatalf("dist with shortcut = %d, want 3", res.Values[2])
	}
	// Merge and re-check (weights survive the CSR rewrite).
	if err := g.MergeInterval(g.IntervalOf(0)); err != nil {
		t.Fatal(err)
	}
	res, err = New(g, Config{MaxSupersteps: 20}).Run(&apps.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[2] != 3 {
		t.Fatalf("dist after merge = %d, want 3", res.Values[2])
	}
}
