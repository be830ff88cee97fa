package csr

import (
	"encoding/binary"
	"fmt"

	"multilogvc/internal/ssd"
)

// ValueBatch holds the values of a sparse set of vertices, loaded by
// reading only the covering pages of the value file. Sets write into the
// loaded page images; Flush writes the touched pages back. Distinct
// vertices may be Set concurrently. The zero value is an empty batch;
// LoadBatch reuses one batch's buffers for load after load.
type ValueBatch struct {
	vv    *Values
	order []int  // the loaded pages, ascending
	buf   []byte // their images, in order
	// slot[p-order[0]] is page p's index in order. A table over the batch's
	// page span — at most one entry per page of the value file — finds a slot
	// with no search and nothing for concurrent readers to share but reads.
	slot []int32
	// The file's page size and lane count, kept here so that a Get or Set
	// chases no pointer.
	ps, lanes uint64
}

// LoadForVerts reads the value-file pages covering the given vertices
// (ascending; a descent is ErrVertsNotAscending) as one batch. Returns the
// batch and the number of pages read.
func (vv *Values) LoadForVerts(verts []uint32) (*ValueBatch, int, error) {
	b := &ValueBatch{}
	pages, err := vv.LoadBatch(b, verts)
	if err != nil {
		return nil, 0, err
	}
	return b, pages, nil
}

// LoadBatch is LoadForVerts into a batch the caller keeps: b's previous
// contents are dropped and its buffers reused. Returns the pages read.
func (vv *Values) LoadBatch(b *ValueBatch, verts []uint32) (int, error) {
	b.vv, b.order = vv, b.order[:0]
	ps := int64(vv.dev.PageSize())
	lanes := int64(vv.laneCount())
	b.ps, b.lanes = uint64(ps), uint64(lanes)
	for i, v := range verts {
		if v >= vv.n {
			return 0, fmt.Errorf("csr: value vertex %d out of [0,%d)", v, vv.n)
		}
		if i > 0 && v < verts[i-1] {
			return 0, fmt.Errorf("%w: value vertex %d follows %d", ErrVertsNotAscending, v, verts[i-1])
		}
		// All lanes of v: slots [v*lanes, (v+1)*lanes), 4 bytes each.
		b.order = appendCover(b.order, int64(v)*lanes*4, int64(v+1)*lanes*4, ps)
	}
	b.buf = grown(b.buf, len(b.order)*int(ps))
	if err := vv.f.ReadPages(b.order, b.buf); err != nil {
		return 0, err
	}
	if len(b.order) > 0 {
		first := b.order[0]
		b.slot = grown(b.slot, b.order[len(b.order)-1]-first+1)
		for k, p := range b.order {
			b.slot[p-first] = int32(k)
		}
	}
	return len(b.order), nil
}

// Forget empties the batch and drops its tie to the value file, keeping its
// buffers for a later LoadBatch, possibly of another file.
func (b *ValueBatch) Forget() { b.vv, b.order = nil, b.order[:0] }

// Bytes returns the memory the batch holds on to between loads.
func (b *ValueBatch) Bytes() int { return cap(b.buf) + 8*cap(b.order) + 4*cap(b.slot) }

// Get returns v's lane-0 value. v must be covered by the batch.
func (b *ValueBatch) Get(v uint32) uint32 { return b.GetLane(v, 0) }

// Set updates v's lane-0 value in the batch. v must be covered by the
// batch. Distinct vertices may be Set concurrently.
func (b *ValueBatch) Set(v uint32, val uint32) { b.SetLane(v, 0, val) }

// word returns the four bytes of slot (v, lane) inside the loaded images.
func (b *ValueBatch) word(v uint32, lane int) []byte {
	off := (uint64(v)*b.lanes + uint64(lane)) * 4
	page := off / b.ps
	at := uint64(b.slot[int(page)-b.order[0]])*b.ps + off - page*b.ps
	return b.buf[at : at+4]
}

// GetLane returns v's value in the given lane of a lane-strided array.
func (b *ValueBatch) GetLane(v uint32, lane int) uint32 {
	return binary.LittleEndian.Uint32(b.word(v, lane))
}

// SetLane updates v's value in the given lane. Distinct (vertex, lane)
// slots may be set concurrently.
func (b *ValueBatch) SetLane(v uint32, lane int, val uint32) {
	binary.LittleEndian.PutUint32(b.word(v, lane), val)
}

// Flush writes the batch's pages back to the device in contiguous runs and
// returns the number of pages written.
func (b *ValueBatch) Flush() (int, error) {
	if len(b.order) == 0 {
		return 0, nil
	}
	return writeRuns(b.vv.f, b.order, b.buf, b.vv.dev.PageSize())
}

// CreateValuesFunc creates a value array of n entries where entry v is
// init(v). Used by engines to materialize per-vertex initial values.
func CreateValuesFunc(dev *ssd.Device, name string, n uint32, init func(v uint32) uint32) (*Values, error) {
	return CreateValuesLanesFunc(dev, name, n, 1, func(v uint32, _ int) uint32 { return init(v) })
}

// CreateValuesLanesFunc creates a lane-strided value array: lanes slots
// per vertex, slot (v, lane) initialized to init(v, lane) and laid out
// v*lanes+lane so vertex ranges stay page-contiguous. A multi-source
// query batch gives each member query one lane over a single array — one
// value-file pass serves every query.
func CreateValuesLanesFunc(dev *ssd.Device, name string, n uint32, lanes int, init func(v uint32, lane int) uint32) (*Values, error) {
	if lanes < 1 {
		lanes = 1
	}
	f, err := dev.OpenOrCreate(name)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(); err != nil {
		return nil, err
	}
	w := ssd.NewWriter(f)
	for v := uint32(0); v < n; v++ {
		for l := 0; l < lanes; l++ {
			if err := w.WriteU32(init(v, l)); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &Values{dev: dev, f: f, n: n, lanes: uint32(lanes)}, nil
}
