package apps

import (
	"fmt"
	"sort"

	"multilogvc/internal/vc"
)

// Multi-source query batching: MultiSource runs K independent point
// queries ("lanes") in one superstep execution. Each lane owns one
// slot of a lane-strided value array and tags its messages with the lane
// id, so the union frontier makes one pass over the adjacency lists and
// message logs while the per-lane results stay bit-identical to K
// sequential single-source runs (the daemon's batching contract).
//
// A message packs <lane:6, distance:26>: up to MaxLanes queries per
// batch, distances below LaneInf. LaneInf is the per-lane "unvisited"
// sentinel; extraction (LaneResult) maps it back to Inf so a lane's
// result compares equal to the single-source program's output. Graphs
// whose finite distances could reach LaneInf (2^26-1) are out of scope
// for batching — every graph in this repository is far below that.
const (
	// LaneShift is the bit position of the lane id in a packed message.
	LaneShift = 26
	// LaneInf is the per-lane "unvisited" distance (all 26 payload bits).
	LaneInf = uint32(1)<<LaneShift - 1
	// MaxLanes is the largest batch a packed message can address.
	MaxLanes = 1 << (32 - LaneShift)
)

// packLane encodes a lane-tagged distance message.
func packLane(lane int, dist uint32) uint32 {
	return uint32(lane)<<LaneShift | dist
}

// unpackLane splits a lane-tagged message payload.
func unpackLane(data uint32) (lane int, dist uint32) {
	return int(data >> LaneShift), data & LaneInf
}

// laneSources validates a batch's source list and returns the sorted
// deduplicated initially-active set (lanes may share a source; each still
// computes independently).
func laneSources(kind string, sources []uint32) ([]uint32, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("apps: %s: empty source batch", kind)
	}
	if len(sources) > MaxLanes {
		return nil, fmt.Errorf("apps: %s: %d sources exceeds the %d-lane message format", kind, len(sources), MaxLanes)
	}
	verts := append([]uint32(nil), sources...)
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	out := verts[:1]
	for _, v := range verts[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out, nil
}

// MultiSource computes distances from K sources at once, one lane per
// source: hop counts (NewMultiBFS), where every edge costs 1, or
// shortest paths (NewMultiSSSP), where an edge costs its weight. That
// cost is the only difference between the two. Lane q's extracted result
// (LaneResult) is bit-identical to BFS{Source: Sources[q]} or
// SSSP{Source: Sources[q]} whenever every finite distance is below
// LaneInf (always true for this repository's graphs).
//
// It does not implement vc.Combiner: messages of different lanes share a
// destination, and no single fold of their payloads keeps the lanes apart.
type MultiSource struct {
	Sources  []uint32
	active   []uint32
	name     string
	weighted bool // an edge costs its weight, not 1
}

// NewMultiBFS validates the batch and builds its hop-count program.
func NewMultiBFS(sources []uint32) (*MultiSource, error) {
	return newMultiSource("multibfs", false, sources)
}

// NewMultiSSSP validates the batch and builds its weighted program.
func NewMultiSSSP(sources []uint32) (*MultiSource, error) {
	return newMultiSource("multisssp", true, sources)
}

func newMultiSource(name string, weighted bool, sources []uint32) (*MultiSource, error) {
	active, err := laneSources(name, sources)
	if err != nil {
		return nil, err
	}
	return &MultiSource{Sources: append([]uint32(nil), sources...), active: active, name: name, weighted: weighted}, nil
}

// Name implements vc.Program.
func (p *MultiSource) Name() string { return p.name }

// Lanes implements vc.LaneProgram.
func (p *MultiSource) Lanes() int { return len(p.Sources) }

// InitValueLane implements vc.LaneProgram: lane q starts at 0 on its own
// source and LaneInf everywhere else.
func (p *MultiSource) InitValueLane(v uint32, lane int, n uint32) uint32 {
	if v == p.Sources[lane] {
		return 0
	}
	return LaneInf
}

// InitValue implements vc.Program (lane 0's view, for single-lane engines).
func (p *MultiSource) InitValue(v, n uint32) uint32 { return p.InitValueLane(v, 0, n) }

// InitActive implements vc.Program: the union of the lane sources.
func (p *MultiSource) InitActive(n uint32) vc.InitSet {
	return vc.InitSet{Verts: p.active}
}

// Process implements vc.Program, mirroring the single-source program per
// lane exactly: superstep 0 relaxes each lane whose source this vertex is
// from distance 0; later supersteps relax any lane a message improved.
func (p *MultiSource) Process(ctx vc.Context, msgs []vc.Msg) {
	if ctx.Superstep() == 0 {
		v := ctx.Vertex()
		for lane, src := range p.Sources {
			if src == v {
				p.relax(ctx, lane, 0)
			}
		}
		ctx.VoteToHalt()
		return
	}
	lc := ctx.(vc.LaneContext)
	var lanes [MaxLanes]uint32 // on the stack: Process runs once per vertex
	best := lanes[:len(p.Sources)]
	for i := range best {
		best[i] = LaneInf
	}
	for _, m := range msgs {
		lane, d := unpackLane(m.Data)
		if lane < len(best) && d < best[lane] {
			best[lane] = d
		}
	}
	for lane, d := range best {
		if d >= lc.ValueLane(lane) {
			continue
		}
		lc.SetValueLane(lane, d)
		p.relax(ctx, lane, d)
	}
	ctx.VoteToHalt()
}

// relax sends lane's distance d plus each out-edge's cost along it.
func (p *MultiSource) relax(ctx vc.Context, lane int, d uint32) {
	var weights []uint32
	if p.weighted {
		weights = ctx.OutWeights()
	}
	for i, dst := range ctx.OutEdges() {
		next := d + 1
		if weights != nil {
			next = d + weights[i]
		}
		if next < d { // overflow guard
			next = LaneInf
		}
		if next < LaneInf {
			ctx.Send(dst, packLane(lane, next))
		}
	}
}

// LaneResult extracts lane's per-vertex values from a lane-strided result
// (as loaded by Values.LoadAll on a Lanes()-lane array), mapping the
// packed sentinel LaneInf back to Inf so the slice compares bit-identical
// to the matching single-source run.
func LaneResult(slots []uint32, lanes, lane int) []uint32 {
	n := len(slots) / lanes
	out := make([]uint32, n)
	for v := 0; v < n; v++ {
		d := slots[v*lanes+lane]
		if d >= LaneInf {
			d = Inf
		}
		out[v] = d
	}
	return out
}
