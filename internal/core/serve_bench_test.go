package core

import (
	"context"
	"fmt"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
)

// servingShape is what an mlvcd point query runs on in bench/'s serve_read:
// RMAT-11 ×12 built with a 48 KiB interval budget on a 4 KiB-page RAM device
// behind a 64 MiB cache, a 64 KiB memory budget per execution.
const (
	servingPageSize = 4096
	servingBudget   = 64 << 10
)

func servingGraph(t testing.TB) *csr.Graph {
	t.Helper()
	edges, _ := rmatEdges(t, 11, 12, 1)
	dev := ssd.MustOpen(ssd.Config{PageSize: servingPageSize, Channels: 8})
	if _, err := csr.Build(dev, "g", edges, csr.BuildOptions{IntervalBudget: IntervalBudget(servingBudget)}); err != nil {
		t.Fatal(err)
	}
	dev.AttachCache(pagecache.FromMB(64, servingPageSize))
	g, err := csr.Open(dev, "g")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// serveRun executes one lane-batched BFS exactly as serve.runEngine
// configures it: pinned snapshot, private scratch namespace swept on exit,
// its own IO scope and the shared cache.
func serveRun(t testing.TB, g *csr.Graph, tag string, sources []uint32) (*superstep.Result, ssd.Stats) {
	t.Helper()
	res, st, err := serveExec(g, tag, sources)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// serveExec is serveRun returning the run's error instead of failing on it.
func serveExec(g *csr.Graph, tag string, sources []uint32) (*superstep.Result, ssd.Stats, error) {
	prog, err := apps.NewMultiBFS(sources)
	if err != nil {
		return nil, ssd.Stats{}, err
	}
	snap := g.Snapshot()
	defer snap.Release()
	sc := ssd.NewScope()
	res, err := New(snap.Graph(), Config{
		MemoryBudget: servingBudget, MaxSupersteps: 100,
		RunTag: tag, Ephemeral: true, Scope: sc,
	}).RunCtx(context.Background(), prog)
	return res, sc.Stats(), err
}

// BenchmarkServeEngine is the serving hot path without HTTP: one engine
// execution per iteration in the serving shape, at the batch sizes the
// daemon's batcher produces, each execution on the working set the one
// before it left; cold empties the idle stack before every execution, so
// each allocates its working set afresh.
// ns/op and B/op are per execution; pages and storage time are per query
// (the execution's divided by its lanes), and spills/op counts batches that
// outgrew the sort budget. Profile it with -cpuprofile to see where a point
// query's time goes.
func BenchmarkServeEngine(b *testing.B) {
	g := servingGraph(b)
	n := g.NumVertices()
	for _, c := range []struct {
		name  string
		lanes int
		cold  bool
	}{{"lanes=1", 1, false}, {"lanes=2", 2, false}, {"lanes=4", 4, false}, {"cold", 1, true}} {
		b.Run(c.name, func(b *testing.B) {
			sources := make([]uint32, c.lanes)
			var read, written, spills uint64
			var storage float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := range sources {
					sources[l] = uint32(i*c.lanes+l) * 2654435761 % n
				}
				if c.cold {
					emptyIdle()
				}
				res, st := serveRun(b, g, fmt.Sprintf("q%d", i), sources)
				read += st.PagesRead
				written += st.PagesWritten
				storage += st.StorageTime().Seconds() * 1e3
				spills += res.Report.Spills
			}
			perQuery := float64(b.N * c.lanes)
			b.ReportMetric(float64(read)/perQuery, "pages-read/query")
			b.ReportMetric(float64(written)/perQuery, "pages-written/query")
			b.ReportMetric(storage/perQuery, "storage-ms/query")
			b.ReportMetric(float64(spills)/float64(b.N), "spills/op")
		})
	}
}
