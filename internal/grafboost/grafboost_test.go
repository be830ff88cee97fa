package grafboost

import (
	"errors"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

func newEngine(t *testing.T, edges []graphio.Edge, n uint32, cfg Config) *Engine {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: n, IntervalBudget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, cfg)
}

func runBoth(t *testing.T, edges []graphio.Edge, n uint32, prog vc.Program, maxSteps int, cfg Config) *superstep.Result {
	t.Helper()
	cfg.MaxSupersteps = maxSteps
	got, err := newEngine(t, edges, n, cfg).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := vc.NewRef(edges, n).Run(prog, maxSteps)
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
	return got
}

func rmatEdges(t *testing.T, scale, ef int, seed int64) ([]graphio.Edge, uint32) {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return edges, uint32(1 << scale)
}

func TestGraFBoostRejectsNonCombinable(t *testing.T) {
	edges, n := rmatEdges(t, 6, 4, 1)
	_, err := newEngine(t, edges, n, Config{MaxSupersteps: 5}).Run(&apps.Coloring{})
	if !errors.Is(err, ErrNeedsCombiner) {
		t.Fatalf("err = %v, want ErrNeedsCombiner", err)
	}
}

func TestGraFBoostAdaptedColoring(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 19)
	res := runBoth(t, edges, n, &apps.Coloring{}, 40, Config{Adapted: true})
	for _, e := range edges {
		if e.Src != e.Dst && res.Values[e.Src] == res.Values[e.Dst] {
			t.Fatalf("improper coloring on edge %v", e)
		}
	}
	if res.Report.Engine != "grafboost-adapted" {
		t.Fatalf("engine name = %q", res.Report.Engine)
	}
}

func TestGraFBoostAdaptedMIS(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 23)
	res := runBoth(t, edges, n, &apps.MIS{Seed: 5}, 100, Config{Adapted: true})
	adj := make(map[uint32][]uint32)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	if msg := apps.IsIndependentSet(res.Values, func(v uint32) []uint32 { return adj[v] }); msg != "" {
		t.Fatal(msg)
	}
}

func TestGraFBoostExternalSortSmallBudget(t *testing.T) {
	// Force the log to outgrow memory so the external sort actually runs.
	edges, n := rmatEdges(t, 9, 8, 29)
	runBoth(t, edges, n, &apps.PageRank{}, 8, Config{MemoryBudget: 8 << 10})
}

func TestGraFBoostFullScanEverySuperstep(t *testing.T) {
	// GraFBoost reads the whole graph regardless of activity: page reads
	// in a late, tiny-frontier BFS superstep stay close to the peak.
	edges, n := rmatEdges(t, 10, 8, 3)
	res, err := newEngine(t, edges, n, Config{MaxSupersteps: 8}).Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	ss := res.Report.Supersteps
	if len(ss) < 3 {
		t.Skip("BFS finished too quickly")
	}
	peak := uint64(0)
	for _, s := range ss {
		if s.PagesRead > peak {
			peak = s.PagesRead
		}
	}
	if ss[1].PagesRead*3 < peak {
		t.Fatalf("superstep 1 read %d pages vs peak %d — engine unexpectedly selective", ss[1].PagesRead, peak)
	}
}

func TestGraFBoostStopAfter(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 13)
	eng := newEngine(t, edges, n, Config{
		MaxSupersteps: 50,
		StopAfter:     func(step int, cum uint64) bool { return step >= 1 },
	})
	res, err := eng.Run(&apps.BFS{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Supersteps) != 2 {
		t.Fatalf("ran %d supersteps, want 2", len(res.Report.Supersteps))
	}
}
