package apps

import (
	"fmt"
	"sort"

	"multilogvc/internal/vc"
)

// Multi-source query batching: MultiBFS and MultiSSSP run K independent
// point queries ("lanes") in one superstep execution. Each lane owns one
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

// MultiBFS computes hop distances from K sources at once, one lane per
// source. Lane q's extracted result (LaneResult) is bit-identical to
// BFS{Source: Sources[q]}.
//
// It deliberately does not implement vc.Combiner: messages of different
// lanes share a destination but must never merge.
type MultiBFS struct {
	Sources []uint32
	active  []uint32
}

// NewMultiBFS validates the batch and builds the program.
func NewMultiBFS(sources []uint32) (*MultiBFS, error) {
	active, err := laneSources("multibfs", sources)
	if err != nil {
		return nil, err
	}
	return &MultiBFS{Sources: append([]uint32(nil), sources...), active: active}, nil
}

// Name implements vc.Program.
func (b *MultiBFS) Name() string { return "multibfs" }

// Lanes implements vc.LaneProgram.
func (b *MultiBFS) Lanes() int { return len(b.Sources) }

// InitValueLane implements vc.LaneProgram: lane q starts at 0 on its own
// source and LaneInf everywhere else.
func (b *MultiBFS) InitValueLane(v uint32, lane int, n uint32) uint32 {
	if v == b.Sources[lane] {
		return 0
	}
	return LaneInf
}

// InitValue implements vc.Program (lane 0's view, for single-lane engines).
func (b *MultiBFS) InitValue(v, n uint32) uint32 { return b.InitValueLane(v, 0, n) }

// InitActive implements vc.Program: the union of the lane sources.
func (b *MultiBFS) InitActive(n uint32) vc.InitSet {
	return vc.InitSet{Verts: b.active}
}

// Process implements vc.Program, mirroring BFS.Process per lane exactly.
func (b *MultiBFS) Process(ctx vc.Context, msgs []vc.Msg) {
	lc := ctx.(vc.LaneContext)
	if ctx.Superstep() == 0 {
		// Each lane whose source this vertex is announces depth 1.
		v := ctx.Vertex()
		for lane, src := range b.Sources {
			if src != v {
				continue
			}
			for _, dst := range ctx.OutEdges() {
				ctx.Send(dst, packLane(lane, 1))
			}
		}
		ctx.VoteToHalt()
		return
	}
	var lanes [MaxLanes]uint32 // on the stack: Process runs once per vertex
	best := lanes[:len(b.Sources)]
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
		next := d + 1
		for _, dst := range ctx.OutEdges() {
			ctx.Send(dst, packLane(lane, next))
		}
	}
	ctx.VoteToHalt()
}

// MultiSSSP computes shortest path distances from K sources at once, one
// lane per source. Lane q's extracted result is bit-identical to
// SSSP{Source: Sources[q]} whenever every finite distance is below
// LaneInf (always true for this repository's graphs).
type MultiSSSP struct {
	Sources []uint32
	active  []uint32
}

// NewMultiSSSP validates the batch and builds the program.
func NewMultiSSSP(sources []uint32) (*MultiSSSP, error) {
	active, err := laneSources("multisssp", sources)
	if err != nil {
		return nil, err
	}
	return &MultiSSSP{Sources: append([]uint32(nil), sources...), active: active}, nil
}

// Name implements vc.Program.
func (s *MultiSSSP) Name() string { return "multisssp" }

// Lanes implements vc.LaneProgram.
func (s *MultiSSSP) Lanes() int { return len(s.Sources) }

// InitValueLane implements vc.LaneProgram.
func (s *MultiSSSP) InitValueLane(v uint32, lane int, n uint32) uint32 {
	if v == s.Sources[lane] {
		return 0
	}
	return LaneInf
}

// InitValue implements vc.Program (lane 0's view).
func (s *MultiSSSP) InitValue(v, n uint32) uint32 { return s.InitValueLane(v, 0, n) }

// InitActive implements vc.Program.
func (s *MultiSSSP) InitActive(n uint32) vc.InitSet {
	return vc.InitSet{Verts: s.active}
}

// Process implements vc.Program, mirroring SSSP.Process per lane exactly:
// superstep 0 relaxes each source lane from distance 0; later supersteps
// relax any lane whose distance a message improved.
func (s *MultiSSSP) Process(ctx vc.Context, msgs []vc.Msg) {
	lc := ctx.(vc.LaneContext)
	relax := func(lane int, best uint32) {
		out := ctx.OutEdges()
		weights := ctx.OutWeights()
		for i, dst := range out {
			w := uint32(1)
			if weights != nil {
				w = weights[i]
			}
			next := best + w
			if next < best { // overflow guard
				next = LaneInf
			}
			if next < LaneInf {
				ctx.Send(dst, packLane(lane, next))
			}
		}
	}
	if ctx.Superstep() == 0 {
		v := ctx.Vertex()
		for lane, src := range s.Sources {
			if src != v {
				continue
			}
			lc.SetValueLane(lane, 0)
			relax(lane, 0)
		}
		ctx.VoteToHalt()
		return
	}
	var lanes [MaxLanes]uint32 // on the stack: Process runs once per vertex
	best := lanes[:len(s.Sources)]
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
		relax(lane, d)
	}
	ctx.VoteToHalt()
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
