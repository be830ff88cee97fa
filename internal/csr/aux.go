package csr

import (
	"encoding/binary"
	"fmt"
	"slices"

	"multilogvc/internal/ssd"
)

// Aux is per-in-edge auxiliary vertex state stored on the device, one
// uint32 per in-edge, laid out per interval in in-CSR order. The community
// detection application uses it to remember each in-neighbor's last known
// label (paper Algorithm 2: V_inf.edge(src).set_label). Loading and
// storing aux state for active vertices is page-granular, which is why
// CDLP on MultiLogVC pays extra reads relative to GraphChi (§VIII).
type Aux struct {
	g     *Graph
	name  string
	files []*ssd.File
}

func auxFileName(graphName, auxName string, iv int) string {
	return fmt.Sprintf("%s.aux.%s.%d", graphName, auxName, iv)
}

// CreateAux creates (or resets) an aux array named auxName for graph g,
// one uint32 per in-edge, initialized to init.
func CreateAux(g *Graph, auxName string, init uint32) (*Aux, error) {
	a := &Aux{g: g, name: auxName}
	for i := range g.meta.Intervals {
		f, err := g.dev.OpenOrCreate(auxFileName(g.meta.Name, auxName, i))
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(); err != nil {
			return nil, err
		}
		w := ssd.NewWriter(f)
		entries := g.meta.InColIdxSize[i] / 4
		for j := int64(0); j < entries; j++ {
			if err := w.WriteU32(init); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		a.files = append(a.files, f)
	}
	return a, nil
}

// DumpAll reads every interval's aux entries with page-batched streaming,
// one slice per interval. Checkpointing serializes the result.
func (a *Aux) DumpAll() ([][]uint32, error) {
	out := make([][]uint32, len(a.files))
	for i, f := range a.files {
		entries := a.g.meta.InColIdxSize[i] / 4
		vals := make([]uint32, entries)
		r := ssd.NewReaderN(f, entries*4, 0)
		for j := range vals {
			v, err := r.U32()
			if err != nil {
				return nil, fmt.Errorf("csr: dump aux %q interval %d: %w", a.name, i, err)
			}
			vals[j] = v
		}
		out[i] = vals
	}
	return out, nil
}

// RestoreAll overwrites every interval's aux entries from a DumpAll
// snapshot, truncating whatever the files held (a crashed run may have
// left partial writes behind).
func (a *Aux) RestoreAll(data [][]uint32) error {
	if len(data) != len(a.files) {
		return fmt.Errorf("csr: aux %q restore has %d intervals, graph has %d", a.name, len(data), len(a.files))
	}
	for i, f := range a.files {
		if want := a.g.meta.InColIdxSize[i] / 4; int64(len(data[i])) != want {
			return fmt.Errorf("csr: aux %q interval %d restore has %d entries, want %d", a.name, i, len(data[i]), want)
		}
		if err := f.Truncate(); err != nil {
			return err
		}
		w := ssd.NewWriter(f)
		for _, v := range data[i] {
			if err := w.WriteU32(v); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// AuxBatch holds the aux slices of a set of active vertices in one
// interval, in one slab found by the vertex's place in the sorted set. Get
// returns a mutable slice (parallel to the vertex's in-CSR source list);
// Flush writes the entries back with page-granular RMW.
type AuxBatch struct {
	aux   *Aux
	iv    int
	verts []uint32 // ascending
	rows  []uint64 // [start, end) entry offsets, two per vertex
	vals  []uint32 // verts[i]'s slice is vals[off[i]:off[i+1]]
	off   []uint32
	order []int  // the loaded pages, ascending
	buf   []byte // their images, in order
}

// LoadBatch fetches the aux slices of the given vertices (strictly
// ascending, all in interval iv). It reads the covering in-rowptr and aux
// pages as batches and returns IO stats alongside the batch.
func (a *Aux) LoadBatch(iv int, verts []uint32) (*AuxBatch, LoadStats, error) {
	var stats LoadStats
	b := &AuxBatch{aux: a, iv: iv}
	if len(verts) == 0 {
		return b, stats, nil
	}
	var scratch Arena
	rowPages, err := a.g.readRowEntries(&scratch, a.g.files[1][colRow][iv], a.g.meta.Intervals[iv], verts)
	if err != nil {
		return nil, stats, err
	}
	stats.RowPtrPages = rowPages
	b.verts, b.rows = slices.Clone(verts), scratch.rows

	// Rows ascend with the vertices, so the page list does too.
	ps := int64(a.g.dev.PageSize())
	b.off = make([]uint32, len(verts)+1)
	for i := range verts {
		start, end := int64(b.rows[2*i]), int64(b.rows[2*i+1])
		b.off[i+1] = b.off[i] + uint32(end-start)
		b.order = appendCover(b.order, start*4, end*4, ps)
	}
	b.buf = make([]byte, len(b.order)*int(ps))
	if err := a.files[iv].ReadPages(b.order, b.buf); err != nil {
		return nil, stats, err
	}
	stats.ColIdxPages = len(b.order)
	b.vals = make([]uint32, b.off[len(verts)])
	b.eachRun(func(vals []uint32, image []byte) { decodeU32(vals, image) })
	return b, stats, nil
}

// eachRun pairs every run of entries that lies on one page with its place in
// that page's image, walking vertices and pages forward together.
func (b *AuxBatch) eachRun(fn func(vals []uint32, image []byte)) {
	ps := b.aux.g.dev.PageSize()
	k := 0
	for i := range b.verts {
		vals := b.vals[b.off[i]:b.off[i+1]]
		for off := int64(b.rows[2*i]) * 4; len(vals) > 0; {
			for b.order[k] < int(off/int64(ps)) {
				k++
			}
			in := int(off % int64(ps))
			n := min(len(vals), (ps-in)/4)
			fn(vals[:n], b.buf[k*ps+in:k*ps+in+4*n])
			vals, off = vals[n:], off+int64(4*n)
		}
	}
}

// Get returns the mutable aux slice for v (parallel to its in-CSR source
// list), or nil if v was not in the batch.
func (b *AuxBatch) Get(v uint32) []uint32 {
	i, ok := slices.BinarySearch(b.verts, v)
	if !ok {
		return nil
	}
	return b.vals[b.off[i]:b.off[i+1]:b.off[i+1]]
}

// Flush writes all batch slices back into the loaded page images and
// writes those pages to the device in contiguous runs. It returns the
// number of pages written.
func (b *AuxBatch) Flush() (int, error) {
	if len(b.order) == 0 {
		return 0, nil
	}
	b.eachRun(func(vals []uint32, image []byte) {
		for j, val := range vals {
			binary.LittleEndian.PutUint32(image[4*j:], val)
		}
	})
	return writeRuns(b.aux.files[b.iv], b.order, b.buf, b.aux.g.dev.PageSize())
}
