// Package csr stores graphs on a simulated SSD in compressed sparse row
// form, partitioned by vertex interval as described in §V of the
// MultiLogVC paper.
//
// A graph named G with k intervals owns these device files, all of which
// Remove deletes:
//
//	G.meta             JSON metadata (sizes, intervals, degrees summary)
//	G.out.rowptr.<i>   uint64 row pointers for interval i's out-edges
//	G.out.colidx.<i>   uint32 destination ids for interval i's out-edges
//	G.out.val.<i>      uint32 out-edge weights (weighted graphs only)
//	G.in.rowptr.<i>    uint64 row pointers for interval i's in-edges
//	G.in.colidx.<i>    uint32 source ids for interval i's in-edges
//	G.in.val.<i>       uint32 in-edge weights (weighted graphs only)
//	G.wal              write-ahead log of acknowledged mutations
//	G.ingest.manifest  a delta merge's redo record
//	G.ingest.shadow    a delta merge's new CSR contents
//
// The CSR files are one table, side (out, in) by column (rowptr, colidx,
// val), laid out by one encoder for Build and the delta merge alike. Row
// pointers are local to the interval: interval i with vertices [Lo, Hi)
// stores Hi-Lo+1 offsets into its own colidx file, and a val file mirrors
// its colidx file.
//
// The loader (Graph) serves adjacency for a *set of active vertices* by
// reading only the covering row-pointer and column-index pages, batched —
// the key capability that distinguishes CSR storage from shard storage in
// the paper. It also reports per-page utilization so the engine can track
// read amplification (Fig 3) and feed the edge-log optimizer (Fig 9).
package csr

import (
	"fmt"
	"math/bits"
)

// Interval is a contiguous vertex range [Lo, Hi).
type Interval struct {
	Lo, Hi uint32
}

// Len returns the number of vertices in the interval.
func (iv Interval) Len() uint32 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v uint32) bool { return v >= iv.Lo && v < iv.Hi }

// AppendVerts appends the interval's vertices to dst in ascending order: the
// vertex list of a fill that covers the whole interval.
func (iv Interval) AppendVerts(dst []uint32) []uint32 {
	for v := iv.Lo; v < iv.Hi; v++ {
		dst = append(dst, v)
	}
	return dst
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// MsgBytes is the size of one logged update record <dst, src, data>,
// 12 bytes as in §V-A of the paper.
const MsgBytes = 12

// Partition splits n vertices into contiguous intervals such that the
// worst-case incoming update volume of each interval — one message per
// in-edge, msgBytes each (§V-A1's conservative assumption) — fits in
// budgetBytes. Every interval holds at least one vertex even if a single
// vertex's in-degree exceeds the budget (it must be processed somehow).
func Partition(inDeg []uint32, msgBytes int, budgetBytes int64) []Interval {
	if budgetBytes <= 0 {
		budgetBytes = 1
	}
	n := uint32(len(inDeg))
	if n == 0 {
		return nil
	}
	var ivs []Interval
	lo := uint32(0)
	var acc int64
	for v := uint32(0); v < n; v++ {
		cost := int64(inDeg[v]) * int64(msgBytes)
		if v > lo && acc+cost > budgetBytes {
			ivs = append(ivs, Interval{Lo: lo, Hi: v})
			lo = v
			acc = 0
		}
		acc += cost
	}
	ivs = append(ivs, Interval{Lo: lo, Hi: n})
	return ivs
}

// IntervalIndex maps a vertex to its interval in constant time — the
// paper's vId2IntervalMap — as a rank table: per block of 64 vertices, one
// bit for every vertex that starts an interval and the number of the interval
// the vertex before the block lies in. A lookup is one block load, a shift
// and a population count, whatever the interval widths; the table takes
// 16 bytes per 64 vertices (n/4 bytes), against 4n for a direct array, and
// BenchmarkIntervalOf measures both ahead of the block scan it replaced.
type IntervalIndex struct {
	ivs    []Interval
	n      uint32 // vertices covered
	blocks []ivBlock
}

type ivBlock struct {
	starts uint64 // bit j: vertex 64·b+j is the first of an interval
	before int32  // interval of vertex 64·b−1; −1 for block 0
}

// NewIntervalIndex builds the lookup structure. Intervals must be sorted,
// non-empty, non-overlapping, and cover [0, n).
func NewIntervalIndex(ivs []Interval, n uint32) *IntervalIndex {
	idx := &IntervalIndex{ivs: ivs, n: n, blocks: make([]ivBlock, n>>6+1)}
	for _, iv := range ivs {
		idx.blocks[iv.Lo>>6].starts |= 1 << (iv.Lo & 63)
	}
	before := int32(-1)
	for b := range idx.blocks {
		idx.blocks[b].before = before
		before += int32(bits.OnesCount64(idx.blocks[b].starts))
	}
	return idx
}

// Of returns the index of the interval containing v: the intervals started
// before v's block plus those started inside it at or before v. v must be
// below NumVertices.
func (x *IntervalIndex) Of(v uint32) int {
	b := &x.blocks[v>>6]
	return int(b.before) + bits.OnesCount64(b.starts<<(63-v&63))
}

// NumVertices returns the number of vertices the intervals cover.
func (x *IntervalIndex) NumVertices() uint32 { return x.n }

// Intervals returns the underlying interval slice. Callers must not
// mutate it.
func (x *IntervalIndex) Intervals() []Interval { return x.ivs }
