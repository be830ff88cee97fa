package csr

import "multilogvc/internal/ssd"

// View returns a per-run view of the graph whose device IO is attributed
// to sc (see ssd.IOScope). The view shares the graph's metadata, interval
// index, and delta set with the original — structural mutations through
// any view are visible to all — and rescopes the CSR file handles and the
// device handle, so concurrent engine runs over one resident graph each
// account their own adjacency traffic and every file they open through
// Device. A nil scope returns g itself.
func (g *Graph) View(sc *ssd.IOScope) *Graph {
	if sc == nil {
		return g
	}
	v := *g
	v.dev = g.dev.Scoped(sc)
	v.outRow = scopedFiles(g.outRow, sc)
	v.outCol = scopedFiles(g.outCol, sc)
	v.inRow = scopedFiles(g.inRow, sc)
	v.inCol = scopedFiles(g.inCol, sc)
	v.outVal = scopedFiles(g.outVal, sc)
	v.inVal = scopedFiles(g.inVal, sc)
	return &v
}

func scopedFiles(fs []*ssd.File, sc *ssd.IOScope) []*ssd.File {
	if fs == nil {
		return nil
	}
	out := make([]*ssd.File, len(fs))
	for i, f := range fs {
		out[i] = f.Scoped(sc)
	}
	return out
}
