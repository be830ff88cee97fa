package csr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"multilogvc/internal/ssd"
)

// Graph is an opened interval-partitioned CSR graph. It serves adjacency
// for sets of active vertices, reading only covering pages (the paper's
// graph loader unit), and reports per-page utilization.
type Graph struct {
	dev  *ssd.Device
	meta *Meta
	idx  *IntervalIndex

	// files[side][col][iv] is interval iv's file of column col on side side
	// (see fileName); the val column is empty when the graph is unweighted.
	files [2][numCols][]*ssd.File

	// ing holds the shared mutable ingest plane (delta overlay, epochs,
	// WAL). Graph values are copied by View and Snapshot, so it sits
	// behind a pointer; atEpoch/pinned make a copy a frozen view.
	ing     *ingestState
	atEpoch uint64 // epoch a pinned view reads at
	pinned  bool
}

// Open opens a graph previously written with Build, first completing any
// merge a crash interrupted (see recoverIngest) so every open observes
// crash-consistent CSR files.
func Open(dev *ssd.Device, name string) (*Graph, error) {
	if err := recoverIngest(dev, name); err != nil {
		return nil, fmt.Errorf("csr: recover interrupted merge of %q: %w", name, err)
	}
	meta, err := readMeta(dev, name)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		dev:  dev,
		meta: meta,
		idx:  NewIntervalIndex(meta.Intervals, meta.NumVertices),
		ing:  newIngestState(),
	}
	// Sequence numbers are identity across restarts (and across replicas):
	// the merged prefix 1..FoldedSeq lives in the CSR files, so the epoch
	// starts there and new mutations continue the numbering, never reuse it.
	g.ing.epoch.Store(meta.FoldedSeq)
	for side := range g.files {
		for col := range meta.cols() {
			for iv := range meta.Intervals {
				f, err := dev.OpenFile(fileName(name, side, col, iv))
				if err != nil {
					return nil, err
				}
				f.SetSize((*meta.sizes(side, col))[iv])
				g.files[side][col] = append(g.files[side][col], f)
			}
		}
	}
	return g, nil
}

// HasWeights reports whether the graph stores per-edge weights.
func (g *Graph) HasWeights() bool { return g.meta.HasWeights }

// Name returns the graph's device name.
func (g *Graph) Name() string { return g.meta.Name }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() uint32 { return g.meta.NumVertices }

// NumEdges returns the current directed edge count of the CSR files
// (delta merges update it; buffered deltas are not counted).
func (g *Graph) NumEdges() uint64 {
	if g.ing != nil {
		g.ing.mu.RLock()
		defer g.ing.mu.RUnlock()
	}
	return g.meta.NumEdges
}

// MaxOutDegree returns the largest out-degree at build time.
func (g *Graph) MaxOutDegree() uint32 {
	if g.ing != nil {
		g.ing.mu.RLock()
		defer g.ing.mu.RUnlock()
	}
	return g.meta.MaxOutDegree
}

// Intervals returns the vertex intervals. Callers must not mutate.
func (g *Graph) Intervals() []Interval { return g.meta.Intervals }

// IntervalOf returns the index of the interval containing v.
func (g *Graph) IntervalOf(v uint32) int { return g.idx.Of(v) }

// Index returns the vertex-to-interval map IntervalOf looks up.
func (g *Graph) Index() *IntervalIndex { return g.idx }

// Device returns the underlying device.
func (g *Graph) Device() *ssd.Device { return g.dev }

// PageKey identifies a column-index page for utilization tracking across
// supersteps. Side 0 = out-CSR, 1 = in-CSR.
type PageKey struct {
	Side     uint8
	Interval int32
	Page     int32
}

// PageUtil reports how many bytes of a fetched column-index page were
// needed by the request that fetched it.
type PageUtil struct {
	Key       PageKey
	UsedBytes int32
}

// LoadStats accounts one adjacency load.
type LoadStats struct {
	RowPtrPages int
	ColIdxPages int
	ValPages    int // weight (val vector) pages, weighted graphs only
	PageUtils   []PageUtil
}

// ErrVertsNotAscending is returned by a load handed a vertex list out of
// order: pages are decoded in one forward pass that relies on it. Adjacency
// and aux loads need the list strictly ascending; value loads let a vertex
// repeat.
var ErrVertsNotAscending = errors.New("csr: vertex list not ascending")

// LoadOutEdges visits the out-edge lists of the given vertices, which must
// all lie in interval iv and be strictly ascending: one FillOutEdges into an
// arena of its own, then a walk over it, so no list is visited unless all
// were loaded; nbrs aliases that arena and is valid only during the call. It
// is the one visitor form, for one-off reads (serve's /walk, tests, and
// bench/probes.go, which engine changes leave alone until ROADMAP item 15);
// a caller that loads batch after batch fills an Arena it keeps instead.
func (g *Graph) LoadOutEdges(iv int, verts []uint32, visit func(v uint32, nbrs []uint32)) (LoadStats, error) {
	var a Arena
	a.Reset(len(verts), false)
	stats, err := g.fill(0, iv, verts, nil, &a)
	if err != nil {
		return stats, err
	}
	for i, v := range verts {
		visit(v, a.Edges(i))
	}
	return stats, nil
}

// FillOutEdges loads the out-edge lists of verts — strictly ascending, all in
// interval iv — into a, verts[i]'s at position pos[i] (position i when pos is
// nil), with their weights when a is weighted, reading only the covering
// row-pointer, column-index and (weighted) val pages, in batches. The stats'
// PageUtils alias a's scratch: they are valid until a's next fill.
func (g *Graph) FillOutEdges(iv int, verts []uint32, pos []int32, a *Arena) (LoadStats, error) {
	return g.fill(0, iv, verts, pos, a)
}

// FillInEdges is FillOutEdges for the in-edge (source) lists.
func (g *Graph) FillInEdges(iv int, verts []uint32, pos []int32, a *Arena) (LoadStats, error) {
	return g.fill(1, iv, verts, pos, a)
}

// fill is the one body behind every adjacency load. verts ascend, so their
// row entries, their edge ranges and the pages holding both ascend too: each
// page list is built by comparing with its last element, and a cursor that
// only moves forward decodes a page's run of edges in one loop.
func (g *Graph) fill(side uint8, iv int, verts []uint32, pos []int32, a *Arena) (LoadStats, error) {
	var stats LoadStats
	if len(verts) == 0 {
		return stats, nil
	}
	files := &g.files[side]
	rowF, colF := files[colRow][iv], files[colIdx][iv]
	var valF *ssd.File
	if a.weighted && g.meta.HasWeights {
		valF = files[colVal][iv]
	}
	// Shared-lock the ingest plane for the whole load: a crash-atomic
	// merge (exclusive) must never rewrite the CSR files under a
	// half-assembled neighbor list. Raw merge-internal views (ing == nil)
	// skip both the lock and the overlay.
	var epoch uint64
	if ing := g.ing; ing != nil {
		ing.mu.RLock()
		defer ing.mu.RUnlock()
		if err := ing.failed; err != nil {
			return stats, err
		}
		if g.pinned {
			epoch = g.atEpoch
		} else {
			epoch = ing.epoch.Load()
		}
	}
	var err error
	if stats.RowPtrPages, err = g.readRowEntries(a, rowF, g.meta.Intervals[iv], verts); err != nil {
		return stats, err
	}

	// The colidx pages covering the requested edge ranges, with the bytes of
	// each that the request uses.
	ps := int64(g.dev.PageSize())
	a.pages, a.utils = a.pages[:0], a.utils[:0]
	edges := 0
	for i := range verts {
		bLo, bHi := int64(a.rows[2*i])*4, int64(a.rows[2*i+1])*4
		edges += int(bHi-bLo) / 4
		for p := bLo / ps; bLo < bHi && p*ps < bHi; p++ {
			if n := len(a.pages); n == 0 || a.pages[n-1] != int(p) {
				a.pages = append(a.pages, int(p))
				a.utils = append(a.utils, PageUtil{Key: PageKey{Side: side, Interval: int32(iv), Page: int32(p)}})
			}
			a.utils[len(a.utils)-1].UsedBytes += int32(min(bHi, (p+1)*ps) - max(bLo, p*ps))
		}
	}
	a.colBuf = grown(a.colBuf, len(a.pages)*int(ps))
	if err := colF.ReadPages(a.pages, a.colBuf); err != nil {
		return stats, err
	}
	stats.ColIdxPages, stats.PageUtils = len(a.pages), a.utils

	// Weighted graphs: the val file mirrors the colidx layout, so the same
	// page list serves the weights. A val file can be shorter than its colidx
	// file only by padding; clamp the request to allocated pages.
	valPages := 0
	if valF != nil {
		for valPages < len(a.pages) && a.pages[valPages] < valF.NumPages() {
			valPages++
		}
		a.valBuf = grown(a.valBuf, valPages*int(ps))
		if err := valF.ReadPages(a.pages[:valPages], a.valBuf); err != nil {
			return stats, err
		}
		stats.ValPages = valPages
	}

	// Decode each vertex's list from the fetched pages into the slab, and
	// overlay structural deltas if present.
	a.Reserve(edges)
	k := 0 // a.pages[k]: the page the cursor is on
	for i, v := range verts {
		p := i
		if pos != nil {
			p = int(pos[i])
		}
		deg := int(a.rows[2*i+1] - a.rows[2*i])
		nbrs, weights := a.Alloc(p, deg)
		lo := len(a.nbrs) - deg
		if deg > 0 {
			off := int64(a.rows[2*i]) * 4
			a.first[p], a.last[p] = int32(off/ps), int32((int64(a.rows[2*i+1])*4-1)/ps)
			for a.pages[k] < int(off/ps) {
				k++
			}
			// The list's pages are consecutive in a.pages from k on.
			in := int(off % ps)
			for j, kp := 0, k; j < deg; kp++ {
				n := min(deg-j, (int(ps)-in)/4)
				decodeU32(nbrs[j:j+n], a.colBuf[kp*int(ps)+in:])
				switch {
				case weights == nil:
				case kp < valPages:
					decodeU32(weights[j:j+n], a.valBuf[kp*int(ps)+in:])
				default:
					clear(weights[j : j+n])
				}
				j, in = j+n, 0
			}
		}
		edges -= deg
		if g.ing != nil {
			// Rare: the overlaid list replaces the decoded one at the slab's
			// tail, and the lists still to come are reserved afresh behind it.
			if nbrs, weights, ok := g.ing.deltas.apply(side, v, nbrs, weights, epoch); ok {
				a.nbrs = append(a.nbrs[:lo], nbrs...)
				if a.weighted {
					a.weights = append(a.weights[:lo], weights...)
				}
				a.Reserve(edges)
				a.span[2*p+1] = uint32(len(a.nbrs))
			}
		}
	}
	return stats, nil
}

// decodeU32 fills dst with the little-endian words at the head of src.
func decodeU32(dst []uint32, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
}

// readRowEntries leaves in a.rows, for each requested vertex, its
// [start, end) edge offsets — laid out [start0, end0, start1, end1, ...] —
// reading only the covering row-pointer pages, and returns how many those
// were. It is where every load checks its input: verts inside the interval
// and strictly ascending.
func (g *Graph) readRowEntries(a *Arena, rowF *ssd.File, interval Interval, verts []uint32) (int, error) {
	ps := int64(g.dev.PageSize())
	a.pages = a.pages[:0]
	for i, v := range verts {
		if !interval.Contains(v) {
			return 0, fmt.Errorf("csr: vertex %d outside interval %v", v, interval)
		}
		if i > 0 && v <= verts[i-1] {
			return 0, fmt.Errorf("%w: %d follows %d", ErrVertsNotAscending, v, verts[i-1])
		}
		// Entries j and j+1, 8 bytes each.
		bLo := int64(v-interval.Lo) * 8
		a.pages = appendCover(a.pages, bLo, bLo+16, ps)
	}
	a.rowBuf = grown(a.rowBuf, len(a.pages)*int(ps))
	if err := rowF.ReadPages(a.pages, a.rowBuf); err != nil {
		return 0, err
	}
	a.rows = grown(a.rows, 2*len(verts))
	k := 0
	for i, v := range verts {
		for e := int64(0); e < 2; e++ {
			off := (int64(v-interval.Lo) + e) * 8
			for a.pages[k] < int(off/ps) {
				k++
			}
			a.rows[2*i+int(e)] = binary.LittleEndian.Uint64(a.rowBuf[int64(k)*ps+off%ps:])
		}
	}
	return len(a.pages), nil
}
