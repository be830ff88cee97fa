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
	for side := range v.files {
		for col, fs := range g.files[side] {
			v.files[side][col] = make([]*ssd.File, len(fs))
			for iv, f := range fs {
				v.files[side][col][iv] = f.Scoped(sc)
			}
		}
	}
	return &v
}
