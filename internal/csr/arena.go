package csr

import "multilogvc/internal/ssd"

// Arena holds the edge lists of one batch of vertices in a single neighbour
// slab (plus a parallel weight slab on weighted loads), each list found by
// its vertex's position in the batch rather than by vertex id. It is the
// in-memory half of FlashGraph's split between a compact index that locates
// vertex state by position and the external adjacency pages it points into.
//
// An engine run owns one Arena and reuses it for every batch: Reset sizes it
// for the batch, FillOutEdges/FillInEdges and edgelog's Fill decode pages
// straight into it, and the page buffers a fill reads into stay with the
// Arena too. Capacities are sized from what a fill needs — the row pointers
// give the edge count before any edge is decoded — so the Arena retains
// little more than the largest batch it has served; Bytes says how much.
// Not safe for concurrent fills; once filled it is read-only and any number
// of goroutines may read it.
type Arena struct {
	nbrs, weights []uint32
	weighted      bool
	// span[2p], span[2p+1] bound position p's list inside the slabs;
	// first[p]..last[p] are the colidx pages it came from (first > last for
	// a list that touched none: zero degree, or served by the edge log).
	span        []uint32
	first, last []int32

	// Scratch of the fill in progress.
	rows                   []uint64 // [start, end) edge offsets, two per vertex
	pages                  []int
	utils                  []PageUtil
	rowBuf, colBuf, valBuf []byte
}

// grown returns buf with length n, reallocating — to exactly n, dropping the
// old contents — only when the capacity falls short.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// appendCover appends to pages, an ascending list, the pages of size ps that
// hold bytes [lo, hi) and lie beyond its last element — so byte ranges that
// ascend, as those of ascending vertices do, yield their distinct pages in
// order with no set and no sort.
func appendCover(pages []int, lo, hi, ps int64) []int {
	for p := int(lo / ps); lo < hi && int64(p)*ps < hi; p++ {
		if n := len(pages); n == 0 || pages[n-1] < p {
			pages = append(pages, p)
		}
	}
	return pages
}

// writeRuns writes the page images in buf — those of the ascending pages in
// order, back to back — to f, one device write per run of consecutive pages
// (consecutive pages are consecutive images), and returns the pages written.
func writeRuns(f *ssd.File, order []int, buf []byte, ps int) (int, error) {
	written := 0
	for i := 0; i < len(order); {
		j := i
		for j+1 < len(order) && order[j+1] == order[j]+1 {
			j++
		}
		if err := f.WritePageRange(order[i], buf[i*ps:(j+1)*ps]); err != nil {
			return written, err
		}
		written += j - i + 1
		i = j + 1
	}
	return written, nil
}

// Reset empties the arena and sizes it for a batch of n positions, every one
// of them an empty list until filled. weighted says whether fills also keep
// edge weights; a weighted arena's weight lists are never nil, even empty,
// since the delta overlay reads nil weights as an unweighted list.
func (a *Arena) Reset(n int, weighted bool) {
	a.nbrs, a.weights, a.weighted = a.nbrs[:0], a.weights[:0], weighted
	if weighted && a.weights == nil {
		a.weights = []uint32{}
	}
	a.span = grown(a.span, 2*n)
	clear(a.span)
	a.first, a.last = grown(a.first, n), grown(a.last, n)
}

// Reserve makes room for edges more neighbours (and weights). A batch that
// fuses many intervals reserves once per interval, so a slab that must grow
// grows by at least a quarter — never by doubling, which would leave the run
// holding up to twice its largest batch.
func (a *Arena) Reserve(edges int) {
	a.nbrs = reserved(a.nbrs, edges)
	if a.weighted {
		a.weights = reserved(a.weights, edges)
	}
}

func reserved(slab []uint32, more int) []uint32 {
	if cap(slab)-len(slab) >= more {
		return slab
	}
	return append(make([]uint32, 0, max(len(slab)+more, cap(slab)+cap(slab)/4)), slab...)
}

// Bytes returns the memory the arena holds on to between batches.
func (a *Arena) Bytes() int {
	return 4*(cap(a.nbrs)+cap(a.weights)+cap(a.span)+cap(a.first)+cap(a.last)) +
		8*(cap(a.rows)+cap(a.pages)) + 16*cap(a.utils) +
		cap(a.rowBuf) + cap(a.colBuf) + cap(a.valBuf)
}

// Alloc appends a list of deg neighbours for position pos and returns it —
// and its weights, nil unless the arena is weighted — for the caller to fill.
func (a *Arena) Alloc(pos, deg int) (nbrs, weights []uint32) {
	a.Reserve(deg)
	lo := len(a.nbrs)
	a.nbrs = a.nbrs[:lo+deg]
	a.span[2*pos], a.span[2*pos+1] = uint32(lo), uint32(lo+deg)
	a.first[pos], a.last[pos] = 1, 0
	if a.weighted {
		a.weights = a.weights[:lo+deg]
		weights = a.weights[lo:]
	}
	return a.nbrs[lo:], weights
}

// Degree returns the length of position pos's list.
func (a *Arena) Degree(pos int) int { return int(a.span[2*pos+1] - a.span[2*pos]) }

// Edges returns position pos's neighbour list. It aliases the slab: valid
// until the next Reset, and callers must not write to it.
func (a *Arena) Edges(pos int) []uint32 {
	lo, hi := a.span[2*pos], a.span[2*pos+1]
	return a.nbrs[lo:hi:hi]
}

// Weights returns the weights parallel to Edges(pos), or nil when the arena
// is not weighted.
func (a *Arena) Weights(pos int) []uint32 {
	if !a.weighted {
		return nil
	}
	lo, hi := a.span[2*pos], a.span[2*pos+1]
	return a.weights[lo:hi:hi]
}

// PageRange returns the colidx page range [first, last] position pos's list
// was read from; first > last when it touched no colidx page.
func (a *Arena) PageRange(pos int) (first, last int32) { return a.first[pos], a.last[pos] }
