package superstep

import (
	"runtime"
	"slices"

	"multilogvc/internal/bitset"
	"multilogvc/internal/extsort"
	"multilogvc/internal/vc"
)

// Defaults resolves the two knobs every engine's Config carries: the
// superstep cap (15, the paper's evaluation cap) and the vertex-processing
// parallelism (GOMAXPROCS).
func Defaults(maxSupersteps, workers int) (int, int) {
	if maxSupersteps <= 0 {
		maxSupersteps = 15
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return maxSupersteps, workers
}

// InitialActive returns the superstep-0 live set of an n-vertex run.
func InitialActive(is vc.InitSet, n uint32) *bitset.Set {
	live := bitset.New(int(n))
	if is.All {
		for v := 0; v < int(n); v++ {
			live.Set(v)
		}
	}
	for _, v := range is.Verts {
		live.Set(int(v))
	}
	return live
}

// ActiveSet returns, ascending and without duplicates, the vertices one
// batch must process: the destinations of recs (sorted by Dst) plus the
// vertices of [lo, hi) set in live. The result reuses buf's storage.
func ActiveSet(buf []uint32, recs []extsort.Record, live *bitset.Set, lo, hi uint32) []uint32 {
	verts := buf[:0]
	for _, r := range recs {
		if n := len(verts); n == 0 || verts[n-1] != r.Dst {
			verts = append(verts, r.Dst)
		}
	}
	live.RangeInRange(int(lo), int(hi), func(v int) bool {
		verts = append(verts, uint32(v))
		return true
	})
	slices.Sort(verts)
	return slices.Compact(verts)
}

// MsgRanges locates each vertex's messages inside recs (sorted by Dst):
// recs[out[i][0]:out[i][1]] are bound for verts[i]. verts must ascend. The
// result reuses buf's storage when it is large enough.
func MsgRanges(buf [][2]int, verts []uint32, recs []extsort.Record) [][2]int {
	out := buf[:0]
	if cap(out) < len(verts) {
		out = make([][2]int, len(verts))
	}
	out = out[:len(verts)]
	pos := 0
	for i, v := range verts {
		for pos < len(recs) && recs[pos].Dst < v {
			pos++
		}
		start := pos
		for pos < len(recs) && recs[pos].Dst == v {
			pos++
		}
		out[i] = [2]int{start, pos}
	}
	return out
}

// AppendMsgs appends recs to buf in the shape Process takes them.
func AppendMsgs(buf []vc.Msg, recs []extsort.Record) []vc.Msg {
	for _, r := range recs {
		buf = append(buf, vc.Msg{Src: r.Src, Data: r.Data})
	}
	return buf
}
