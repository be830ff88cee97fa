package csr

import (
	"sort"

	"multilogvc/internal/graphio"
	"multilogvc/internal/wal"
)

// DeltaSet buffers graph structural updates (§V-E) as an epoch-ordered
// operation log overlaid on adjacency reads. Each mutation is recorded
// on both CSR sides (an out-op under its source, an in-op under its
// destination) carrying the sequence number the ingest plane assigned
// it, so a reader at epoch E applies exactly the ops with seq <= E — the
// mechanism behind snapshot isolation (Graph.Snapshot).
//
// When the buffered volume crosses the merge threshold the whole delta
// is folded into the CSR files by the crash-atomic shadow merge in
// ingest.go, which doubles as the WAL checkpoint.
//
// wpair is a pending edge endpoint with its weight.
type wpair struct {
	id, w uint32
}

// edgeOp is one buffered structural mutation as seen from one side:
// under vertex v, "add/del edge to/from id".
type edgeOp struct {
	del bool
	id  uint32
	w   uint32
	seq uint64
}

type DeltaSet struct {
	outOps map[uint32][]edgeOp // per-source pending out-edge ops, seq order
	inOps  map[uint32][]edgeOp // per-destination pending in-edge ops, seq order
	ops    int                 // buffered side-entries (2 per live mutation)
	merges int
}

func newDeltaSet() *DeltaSet {
	return &DeltaSet{
		outOps: make(map[uint32][]edgeOp),
		inOps:  make(map[uint32][]edgeOp),
	}
}

// DefaultMergeThreshold is the buffered side-entry count above which the
// delta is folded into the CSR files.
const DefaultMergeThreshold = 4096

// insert records one numbered mutation. A delete whose matching add is
// still buffered and invisible to every pinned snapshot (add seq >
// maxPinned) cancels the add physically instead of accumulating both ops —
// deleting an edge added in the same delta epoch must not grow the buffer.
func (d *DeltaSet) insert(r wal.Record, maxPinned uint64) {
	del := r.Op == wal.OpDel
	if del && d.cancel(r.Src, r.Dst, maxPinned) {
		return
	}
	d.outOps[r.Src] = append(d.outOps[r.Src], edgeOp{del: del, id: r.Dst, w: r.W, seq: r.Seq})
	d.inOps[r.Dst] = append(d.inOps[r.Dst], edgeOp{del: del, id: r.Src, w: r.W, seq: r.Seq})
	d.ops += 2
}

// cancel removes the most recent buffered add of (src, dst) — and its
// in-side twin — if no pinned snapshot can still observe it. It returns
// false when the newest matching op is a delete (the add it shadowed is
// already gone or pinned) or when the add is pinned, in which case the
// caller records the delete as a regular op.
func (d *DeltaSet) cancel(src, dst uint32, maxPinned uint64) bool {
	outs := d.outOps[src]
	for i := len(outs) - 1; i >= 0; i-- {
		op := outs[i]
		if op.id != dst {
			continue
		}
		if op.del || op.seq <= maxPinned {
			return false
		}
		d.outOps[src] = append(outs[:i], outs[i+1:]...)
		if len(d.outOps[src]) == 0 {
			delete(d.outOps, src)
		}
		ins := d.inOps[dst]
		for j := len(ins) - 1; j >= 0; j-- {
			if ins[j].seq == op.seq {
				d.inOps[dst] = append(ins[:j], ins[j+1:]...)
				break
			}
		}
		if len(d.inOps[dst]) == 0 {
			delete(d.inOps, dst)
		}
		d.ops -= 2
		return true
	}
	return false
}

// clear drops every buffered op (after a full merge folded them).
func (d *DeltaSet) clear() {
	d.outOps = make(map[uint32][]edgeOp)
	d.inOps = make(map[uint32][]edgeOp)
	d.ops = 0
}

// apply overlays the ops visible at epoch on a freshly read neighbor
// list (and its weights slice, which may be nil for unweighted graphs).
// Ops replay in sequence order: an add appends an instance, a delete
// removes the most recently added matching instance (falling back to the
// base CSR instance), giving the edge list multiset semantics. With no op
// visible it reports false and returns its arguments; otherwise the lists it
// returns are fresh copies.
func (d *DeltaSet) apply(side uint8, v uint32, nbrs, weights []uint32, epoch uint64) ([]uint32, []uint32, bool) {
	var ops []edgeOp
	if side == 0 {
		ops = d.outOps[v]
	} else {
		ops = d.inOps[v]
	}
	n := 0
	for _, op := range ops {
		if op.seq <= epoch {
			n++
		}
	}
	if n == 0 {
		return nbrs, weights, false
	}
	out := make([]uint32, 0, len(nbrs)+n)
	out = append(out, nbrs...)
	var outW []uint32
	if weights != nil {
		outW = make([]uint32, 0, len(nbrs)+n)
		outW = append(outW, weights...)
	}
	for _, op := range ops {
		if op.seq > epoch {
			continue
		}
		if !op.del {
			out = append(out, op.id)
			if outW != nil {
				outW = append(outW, op.w)
			}
			continue
		}
		for i := len(out) - 1; i >= 0; i-- {
			if out[i] == op.id {
				out = append(out[:i], out[i+1:]...)
				if outW != nil {
					outW = append(outW[:i], outW[i+1:]...)
				}
				break
			}
		}
	}
	return out, outW, true
}

// PendingUpdates returns the number of buffered structural update
// entries (each mutation contributes one per CSR side).
func (g *Graph) PendingUpdates() int {
	if g.ing == nil {
		return 0
	}
	g.ing.mu.RLock()
	defer g.ing.mu.RUnlock()
	return g.ing.deltas.ops
}

// Merges returns how many delta merges structural updates have triggered
// so far.
func (g *Graph) Merges() int {
	if g.ing == nil {
		return 0
	}
	g.ing.mu.RLock()
	defer g.ing.mu.RUnlock()
	return g.ing.deltas.merges
}

func sortPairs(pairs []wpair) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
}

// CurrentEdges returns the full current edge list (CSR plus pending
// deltas), sorted. Intended for tests and tools.
func (g *Graph) CurrentEdges() ([]graphio.Edge, error) {
	var edges []graphio.Edge
	for iv := range g.meta.Intervals {
		if err := g.ReadWholeInterval(iv, func(v uint32, nbrs []uint32) {
			for _, nb := range nbrs {
				edges = append(edges, graphio.Edge{Src: v, Dst: nb})
			}
		}); err != nil {
			return nil, err
		}
	}
	graphio.SortEdges(edges)
	return edges, nil
}
