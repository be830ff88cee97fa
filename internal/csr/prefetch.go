package csr

import (
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// Prefetch planning helpers: these compute which device pages a future
// adjacency or value load for a predicted-active vertex set would touch,
// so the engine's prefetcher can warm them while the current batch
// computes. They mirror the page arithmetic of loadEdges/readRowEntries
// and LoadForVerts exactly — a page warmed here is precisely a page the
// demand load would otherwise miss on.

// File returns the device file backing the value array.
func (vv *Values) File() *ssd.File { return vv.f }

// PagesForVerts returns the distinct pages holding the value slots of the
// given vertices (all lanes), which must be sorted ascending.
func (vv *Values) PagesForVerts(verts []uint32) []int {
	ps := int64(vv.dev.PageSize())
	lanes := int64(vv.laneCount())
	var pages []int
	for _, v := range verts {
		if v < vv.n {
			pages = appendCover(pages, int64(v)*lanes*4, int64(v+1)*lanes*4, ps)
		}
	}
	return pages
}

// OutRowPages returns interval iv's out-CSR row-pointer file and the
// pages covering the row entries of verts (ascending; vertices outside the
// interval are skipped). Pure arithmetic — no IO — so it is safe to call
// from the engine's main loop when planning prefetch.
func (g *Graph) OutRowPages(iv int, verts []uint32) (*ssd.File, []int) {
	if len(verts) == 0 {
		return nil, nil
	}
	interval := g.meta.Intervals[iv]
	ps := int64(g.dev.PageSize())
	var pages []int
	for _, v := range verts {
		if !interval.Contains(v) {
			continue
		}
		bLo := int64(v-interval.Lo) * 8 // entries j and j+1, 8 bytes each
		pages = appendCover(pages, bLo, bLo+16, ps)
	}
	return g.outRow[iv], pages
}

// OutColPages reads the row entries of verts (a cache hit when the
// row-pointer pages were warmed first) and returns the column-index file
// and the pages holding those vertices' edges. This is the second stage
// of the two-stage CSR prefetch: rowptr pages first, then the colidx
// pages they point at. Runs on the prefetch worker.
func (g *Graph) OutColPages(iv int, verts []uint32) (*ssd.File, []int, error) {
	if len(verts) == 0 {
		return nil, nil, nil
	}
	interval := g.meta.Intervals[iv]
	inRange := verts[:0:0]
	for _, v := range verts {
		if interval.Contains(v) {
			inRange = append(inRange, v)
		}
	}
	if len(inRange) == 0 {
		return nil, nil, nil
	}
	// Runs on the prefetch worker, concurrent with the engine's tagged
	// phase — charge the row-entry reads to the prefetch stage explicitly.
	rowF := g.outRow[iv]
	var scratch Arena
	if _, err := g.readRowEntries(&scratch, rowF, interval, inRange,
		func(pages []int, dst []byte) error {
			return rowF.ReadPagesTagged(pages, dst, obsv.StagePrefetch)
		}); err != nil {
		return nil, nil, err
	}
	ps := int64(g.dev.PageSize())
	var pages []int
	for i := range inRange {
		pages = appendCover(pages, int64(scratch.rows[2*i])*4, int64(scratch.rows[2*i+1])*4, ps)
	}
	return g.outCol[iv], pages, nil
}
