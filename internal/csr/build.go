package csr

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

// Meta is the JSON metadata persisted alongside a graph's CSR files.
type Meta struct {
	Name        string     `json:"name"`
	NumVertices uint32     `json:"num_vertices"`
	NumEdges    uint64     `json:"num_edges"` // directed edge count
	Intervals   []Interval `json:"intervals"`
	// Sizes record logical byte lengths of each per-interval file so the
	// graph can be reopened from a disk-backed device.
	OutRowPtrSize []int64 `json:"out_rowptr_size"`
	OutColIdxSize []int64 `json:"out_colidx_size"`
	InRowPtrSize  []int64 `json:"in_rowptr_size"`
	InColIdxSize  []int64 `json:"in_colidx_size"`
	MaxOutDegree  uint32  `json:"max_out_degree"`
	MaxInDegree   uint32  `json:"max_in_degree"`
	// HasWeights marks graphs built with per-edge weights (the CSR val
	// vector of Fig 1a); the val files mirror the colidx layout.
	HasWeights bool    `json:"has_weights"`
	OutValSize []int64 `json:"out_val_size,omitempty"`
	InValSize  []int64 `json:"in_val_size,omitempty"`
	// FoldedSeq is the highest WAL sequence number folded into these CSR
	// files by a delta merge. Reopen floors the ingest epoch and the WAL's
	// next seq here: merged history must keep its sequence numbers even
	// though its frames are truncated — seqs are identity for replication.
	FoldedSeq uint64 `json:"folded_seq,omitempty"`
}

// BuildOptions configures Build.
type BuildOptions struct {
	// NumVertices overrides the inferred vertex count (max id + 1) when
	// the graph has trailing isolated vertices.
	NumVertices uint32
	// IntervalBudget is the per-interval worst-case update volume in
	// bytes (§V-A1). Defaults to 1MB.
	IntervalBudget int64
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.IntervalBudget <= 0 {
		o.IntervalBudget = 1 << 20
	}
	return o
}

func metaName(name string) string { return name + ".meta" }

// The CSR files of a graph form one table: a side (out, in) by a column
// (row pointers, neighbour ids and, on weighted graphs only, weights), one
// file per interval in each cell.
const (
	colRow = iota // uint64 row pointers, one per vertex plus the end
	colIdx        // uint32 neighbour ids
	colVal        // uint32 edge weights
	numCols
)

var (
	sideNames = [2]string{"out", "in"}
	colNames  = [numCols]string{"rowptr", "colidx", "val"}
)

// fileName names interval iv's file of column col on side side.
func fileName(name string, side, col, iv int) string {
	return fmt.Sprintf("%s.%s.%s.%d", name, sideNames[side], colNames[col], iv)
}

// cols returns how many columns the graph's files have.
func (m *Meta) cols() int {
	if m.HasWeights {
		return numCols
	}
	return colVal
}

// sizes returns the field recording the logical sizes of the files of
// column col on side side, one per interval.
func (m *Meta) sizes(side, col int) *[]int64 {
	return [2][numCols]*[]int64{
		{&m.OutRowPtrSize, &m.OutColIdxSize, &m.OutValSize},
		{&m.InRowPtrSize, &m.InColIdxSize, &m.InValSize},
	}[side][col]
}

// encoder lays out one interval side of the CSR: a row pointer per vertex
// plus the end, then every vertex's neighbours and, on weighted graphs,
// their weights, all little-endian. Build and the delta merge both write
// through it.
type encoder struct {
	cols     [numCols][]byte
	edges    uint64
	weighted bool
}

func (e *encoder) reset(weighted bool) {
	for c := range e.cols {
		e.cols[c] = e.cols[c][:0]
	}
	e.edges, e.weighted = 0, weighted
}

// row starts the next vertex's list.
func (e *encoder) row() {
	e.cols[colRow] = binary.LittleEndian.AppendUint64(e.cols[colRow], e.edges)
}

// edge appends one edge to the current vertex's list.
func (e *encoder) edge(id, w uint32) {
	e.cols[colIdx] = binary.LittleEndian.AppendUint32(e.cols[colIdx], id)
	if e.weighted {
		e.cols[colVal] = binary.LittleEndian.AppendUint32(e.cols[colVal], w)
	}
	e.edges++
}

// finish appends the end pointer and returns the contents of the side's
// files, in column order.
func (e *encoder) finish() [][]byte {
	e.row()
	if e.weighted {
		return e.cols[:]
	}
	return e.cols[:colVal]
}

// Build writes edges to the device as an interval-partitioned CSR graph
// (both out-CSR and in-CSR) and returns the opened Graph.
//
// The edge list is treated as directed; for undirected graphs pass the
// symmetric closure (see graphio.MakeUndirected).
func Build(dev *ssd.Device, name string, edges []graphio.Edge, opts BuildOptions) (*Graph, error) {
	wedges := make([]graphio.WeightedEdge, len(edges))
	for i, e := range edges {
		wedges[i] = graphio.WeightedEdge{Src: e.Src, Dst: e.Dst}
	}
	return build(dev, name, wedges, false, opts)
}

// BuildWeighted is Build for weighted edges: per-edge weights are stored
// in val files mirroring the colidx layout (the paper's val vector).
func BuildWeighted(dev *ssd.Device, name string, wedges []graphio.WeightedEdge, opts BuildOptions) (*Graph, error) {
	kept := make([]graphio.WeightedEdge, len(wedges))
	copy(kept, wedges)
	return build(dev, name, kept, true, opts)
}

func build(dev *ssd.Device, name string, wedges []graphio.WeightedEdge, weighted bool, opts BuildOptions) (*Graph, error) {
	opts = opts.withDefaults()
	if uint64(len(wedges)) > math.MaxUint32 {
		return nil, fmt.Errorf("csr: graph %q has %d edges, more than 2^32", name, len(wedges))
	}
	n64 := uint64(opts.NumVertices)
	for _, e := range wedges {
		n64 = max(n64, uint64(e.Src)+1, uint64(e.Dst)+1)
	}
	if n64 == 0 || n64 > math.MaxUint32 {
		return nil, fmt.Errorf("csr: cannot build graph %q of %d vertices", name, n64)
	}
	n := uint32(n64)

	// The out-CSR holds the edges sorted by (src, dst), the in-CSR by (dst,
	// src) with the sources as neighbours. Scattering the out order stably
	// through the in-degree prefix sums gives the in order without a second
	// sort; the sources and weights land straight in the in-side columns.
	graphio.SortWeighted(wedges)
	inDeg := make([]uint32, n)
	var maxOut, run uint32
	for i, e := range wedges {
		inDeg[e.Dst]++
		if i > 0 && e.Src == wedges[i-1].Src {
			run++
		} else {
			run = 1
		}
		maxOut = max(maxOut, run)
	}
	ivs := Partition(inDeg, MsgBytes, opts.IntervalBudget)
	meta := Meta{
		Name:         name,
		NumVertices:  n,
		NumEdges:     uint64(len(wedges)),
		Intervals:    ivs,
		MaxOutDegree: maxOut,
		MaxInDegree:  slices.Max(inDeg),
		HasWeights:   weighted,
	}
	inEnd := inDeg // each vertex's in-list start in inSrc; after the scatter, its end
	var sum uint32
	for v, d := range inDeg {
		inEnd[v] = sum
		sum += d
	}
	inSrc := make([]uint32, len(wedges))
	var inW []uint32
	if weighted {
		inW = make([]uint32, len(wedges))
	}
	for _, e := range wedges {
		p := inEnd[e.Dst]
		inEnd[e.Dst]++
		inSrc[p] = e.Src
		if weighted {
			inW[p] = e.Weight
		}
	}

	var enc encoder
	for side := range 2 {
		var pos uint32
		for iv, interval := range ivs {
			enc.reset(weighted)
			for v := interval.Lo; v < interval.Hi; v++ {
				enc.row()
				if side == 0 {
					for ; pos < uint32(len(wedges)) && wedges[pos].Src == v; pos++ {
						enc.edge(wedges[pos].Dst, wedges[pos].Weight)
					}
					continue
				}
				for ; pos < inEnd[v]; pos++ {
					var w uint32
					if weighted {
						w = inW[pos]
					}
					enc.edge(inSrc[pos], w)
				}
			}
			for col, b := range enc.finish() {
				f, err := dev.Create(fileName(name, side, col, iv))
				if err != nil {
					return nil, fmt.Errorf("csr: create %s: %w", colNames[col], err)
				}
				w := ssd.NewWriter(f)
				if _, err := w.Write(b); err != nil {
					return nil, err
				}
				if err := w.Close(); err != nil {
					return nil, err
				}
				sizes := meta.sizes(side, col)
				*sizes = append(*sizes, f.Size())
			}
		}
	}

	if err := writeMeta(dev, name, &meta); err != nil {
		return nil, err
	}
	return Open(dev, name)
}

func writeMeta(dev *ssd.Device, name string, meta *Meta) error {
	f, err := dev.OpenOrCreate(metaName(name))
	if err != nil {
		return err
	}
	if err := f.Truncate(); err != nil {
		return err
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	w := ssd.NewWriter(f)
	if _, err := w.Write(blob); err != nil {
		return err
	}
	return w.Close()
}

func readMeta(dev *ssd.Device, name string) (*Meta, error) {
	f, err := dev.OpenFile(metaName(name))
	if err != nil {
		return nil, fmt.Errorf("csr: graph %q not found: %w", name, err)
	}
	blob := make([]byte, f.Size())
	if err := f.ReadAt(blob, 0); err != nil {
		return nil, err
	}
	// Devices re-adopted from a backing directory only know page-aligned
	// sizes; trim the zero padding before decoding.
	blob = bytes.TrimRight(blob, "\x00")
	var meta Meta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, fmt.Errorf("csr: corrupt metadata for %q: %w", name, err)
	}
	return &meta, nil
}

// Remove deletes every device file the named graph owns: its CSR files,
// its metadata, and its write-ahead log and merge files.
func Remove(dev *ssd.Device, name string) error {
	meta, err := readMeta(dev, name)
	if err != nil {
		return err
	}
	fns := []string{ingestWALName(name), ingestManifestName(name), ingestShadowName(name)}
	for side := range 2 {
		for col := range meta.cols() {
			for iv := range meta.Intervals {
				fns = append(fns, fileName(name, side, col, iv))
			}
		}
	}
	for _, fn := range fns {
		if dev.Exists(fn) {
			if err := dev.Remove(fn); err != nil {
				return err
			}
		}
	}
	return dev.Remove(metaName(name))
}
