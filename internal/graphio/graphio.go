// Package graphio reads and writes graphs as edge lists.
//
// Two interchange formats are supported:
//
//   - Text: one "src dst" pair per line, '#' comments, as used by the SNAP
//     dataset collection.
//   - Binary: a little-endian stream of (src uint32, dst uint32) pairs with
//     an 16-byte header, for fast reload of generated graphs.
//
// The package also provides degree counting and normalization helpers used
// by the CSR and shard builders.
package graphio

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Edge is a directed edge.
type Edge struct {
	Src, Dst uint32
}

// binaryMagic identifies the binary edge-list format.
const binaryMagic = 0x4d4c5643 // "MLVC"

// ErrBadFormat is returned when parsing malformed input.
var ErrBadFormat = errors.New("graphio: malformed input")

// ReadText parses a whitespace-separated edge list. Lines starting with
// '#' or '%' are comments; blank lines are skipped.
func ReadText(r io.Reader) ([]Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var edges []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadFormat, lineNo, line)
		}
		s, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
		}
		d, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
		}
		edges = append(edges, Edge{Src: uint32(s), Dst: uint32(d)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
}

// WriteText writes edges one per line.
func WriteText(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinary writes the binary edge-list format: magic, count, then pairs.
func WriteBinary(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 1) // version
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(edges)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(rec[0:], e.Src)
		binary.LittleEndian.PutUint32(rec[4:], e.Dst)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary edge-list format.
func ReadBinary(r io.Reader) ([]Edge, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	edges := make([]Edge, 0, n)
	var rec [8]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrBadFormat, i, err)
		}
		edges = append(edges, Edge{
			Src: binary.LittleEndian.Uint32(rec[0:]),
			Dst: binary.LittleEndian.Uint32(rec[4:]),
		})
	}
	return edges, nil
}

// NumVertices returns 1 + the maximum vertex id referenced, or 0 for an
// empty edge list.
func NumVertices(edges []Edge) uint32 {
	var maxID uint32
	seen := false
	for _, e := range edges {
		seen = true
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	if !seen {
		return 0
	}
	return maxID + 1
}

// OutDegrees counts out-degrees for n vertices.
func OutDegrees(edges []Edge, n uint32) []uint32 {
	deg := make([]uint32, n)
	for _, e := range edges {
		deg[e.Src]++
	}
	return deg
}

// MakeUndirected returns the symmetric closure of edges with self-loops and
// duplicates removed: for every {u,v}, both (u,v) and (v,u) appear exactly
// once. The paper's datasets are undirected graphs stored this way.
func MakeUndirected(edges []Edge) []Edge {
	out := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		out = append(out, e, Edge{Src: e.Dst, Dst: e.Src})
	}
	return Dedup(out)
}

// Dedup sorts edges by (src, dst) and removes duplicates in place.
func Dedup(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	SortEdges(edges)
	w := 1
	for i := 1; i < len(edges); i++ {
		if edges[i] != edges[i-1] {
			edges[w] = edges[i]
			w++
		}
	}
	return edges[:w]
}

// Every edge sort below goes through sortStable and orders by a packed key:
// (hi, lo) becomes hi<<32 | lo. The sort is stable, so edges with equal
// keys keep their input order.

func srcDst(e Edge) uint64                 { return key(e.Src, e.Dst) }
func weightedSrcDst(e WeightedEdge) uint64 { return key(e.Src, e.Dst) }

// SortEdges sorts by (src, dst), stably.
func SortEdges(edges []Edge) { sortStable(edges, srcDst) }

// key maps a pair to an integer that orders as (hi, lo) does.
func key(hi, lo uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

// countRange bounds the counting path of sortStable: it runs only while
// the largest vertex ID is below countRange × len(s), so its counts (4 B a
// vertex) cost at most 4·countRange B an edge. Sparser inputs, such as a
// few edges between IDs near 1<<32, take the comparison path instead.
const countRange = 2

// sortStable sorts s stably by the packed key k(e) = hi<<32 | lo, where hi
// and lo are vertex IDs. It returns at once when s is already sorted. On
// dense IDs it is a two-pass counting sort, by lo and then by hi, with one
// count per vertex ID and a temporary copy of s; otherwise it is a stable
// comparison sort on the key.
func sortStable[E any](s []E, k func(E) uint64) {
	var maxID uint32
	sorted := true
	prev := uint64(0)
	for _, e := range s {
		x := k(e)
		maxID = max(maxID, uint32(x>>32), uint32(x))
		sorted = sorted && x >= prev
		prev = x
	}
	if sorted {
		return
	}
	if uint64(maxID) >= countRange*uint64(len(s)) || uint64(len(s)) > math.MaxUint32 {
		slices.SortStableFunc(s, func(a, b E) int { return cmp.Compare(k(a), k(b)) })
		return
	}
	buf := make([]E, len(s))
	counts := make([]uint32, uint64(maxID)+1)
	scatter(buf, s, counts, k, 0)
	clear(counts)
	scatter(s, buf, counts, k, 32)
}

// scatter copies src into dst ordered by the 32 key bits at shift, stably,
// through counts, which must be zero and hold one slot per vertex ID.
func scatter[E any](dst, src []E, counts []uint32, k func(E) uint64, shift uint) {
	for _, e := range src {
		counts[uint32(k(e)>>shift)]++
	}
	var sum uint32
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	for _, e := range src {
		id := uint32(k(e) >> shift)
		dst[counts[id]] = e
		counts[id]++
	}
}

// WeightedEdge is a directed edge with a uint32 weight (the paper's CSR
// val vector entries; Fig 1a). Algorithms interpret the weight — SSSP
// reads it as a distance.
type WeightedEdge struct {
	Src, Dst, Weight uint32
}

// Strip returns the unweighted edges.
func Strip(wedges []WeightedEdge) []Edge {
	out := make([]Edge, len(wedges))
	for i, e := range wedges {
		out[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// AttachWeights pairs edges with weights produced by w(src, dst).
func AttachWeights(edges []Edge, w func(src, dst uint32) uint32) []WeightedEdge {
	out := make([]WeightedEdge, len(edges))
	for i, e := range edges {
		out[i] = WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: w(e.Src, e.Dst)}
	}
	return out
}

// SortWeighted sorts by (src, dst), stably, keeping weights attached:
// parallel edges keep their input order.
func SortWeighted(wedges []WeightedEdge) { sortStable(wedges, weightedSrcDst) }

// DedupWeighted sorts by (src, dst) and removes duplicate edges (keeping
// the first weight).
func DedupWeighted(wedges []WeightedEdge) []WeightedEdge {
	if len(wedges) == 0 {
		return wedges
	}
	SortWeighted(wedges)
	w := 1
	for i := 1; i < len(wedges); i++ {
		if wedges[i].Src != wedges[i-1].Src || wedges[i].Dst != wedges[i-1].Dst {
			wedges[w] = wedges[i]
			w++
		}
	}
	return wedges[:w]
}

// MakeUndirectedWeighted returns the symmetric closure with self-loops
// and duplicates removed; both directions carry the same weight.
func MakeUndirectedWeighted(wedges []WeightedEdge) []WeightedEdge {
	out := make([]WeightedEdge, 0, 2*len(wedges))
	for _, e := range wedges {
		if e.Src == e.Dst {
			continue
		}
		out = append(out, e, WeightedEdge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return DedupWeighted(out)
}
