package csr

import (
	"encoding/binary"
	"fmt"

	"multilogvc/internal/ssd"
)

// Values is an on-device array of vertex values (uint32 slots). The
// common shape is one slot per vertex; a lane-strided array (see
// CreateValuesLanesFunc) holds lanes slots per vertex, laid out
// slot(v, lane) = v*lanes + lane, so the slots of a contiguous vertex
// range stay contiguous on the device — multi-source query batching pays
// the same page locality as a single-source run. Engines load and store
// covering pages with page-batched IO.
type Values struct {
	dev   *ssd.Device
	f     *ssd.File
	n     uint32
	lanes uint32 // slots per vertex; 0 reads as 1 (single-lane)
}

// laneCount normalizes the zero value to one lane.
func (vv *Values) laneCount() uint32 {
	if vv.lanes == 0 {
		return 1
	}
	return vv.lanes
}

// Lanes returns the number of value slots per vertex.
func (vv *Values) Lanes() int { return int(vv.laneCount()) }

// slots returns the total slot count (n vertices × lanes).
func (vv *Values) slots() uint32 { return vv.n * vv.laneCount() }

// CreateValues creates (or resets) a value array of n entries, all
// initialized to init.
func CreateValues(dev *ssd.Device, name string, n uint32, init uint32) (*Values, error) {
	f, err := dev.OpenOrCreate(name)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(); err != nil {
		return nil, err
	}
	w := ssd.NewWriter(f)
	for i := uint32(0); i < n; i++ {
		if err := w.WriteU32(init); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &Values{dev: dev, f: f, n: n}, nil
}

// OpenValues opens an existing value array of n entries.
func OpenValues(dev *ssd.Device, name string, n uint32) (*Values, error) {
	f, err := dev.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &Values{dev: dev, f: f, n: n}, nil
}

// Len returns the number of entries.
func (vv *Values) Len() uint32 { return vv.n }

// LoadRange reads value slots [lo, hi) as one page batch. On a
// single-lane array slots are vertices; on a lane-strided array callers
// address raw slots (vertex v's lanes occupy [v*lanes, (v+1)*lanes)).
func (vv *Values) LoadRange(lo, hi uint32) ([]uint32, error) {
	if lo > hi || hi > vv.slots() {
		return nil, fmt.Errorf("csr: value range [%d,%d) out of [0,%d)", lo, hi, vv.slots())
	}
	if lo == hi {
		return nil, nil
	}
	ps := vv.dev.PageSize()
	bLo, bHi := int64(lo)*4, int64(hi)*4
	pLo, pHi := int(bLo/int64(ps)), int((bHi-1)/int64(ps))
	buf := make([]byte, (pHi-pLo+1)*ps)
	if err := vv.f.ReadPageRange(pLo, pHi-pLo+1, buf); err != nil {
		return nil, err
	}
	out := make([]uint32, hi-lo)
	base := bLo - int64(pLo)*int64(ps)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[base+int64(i)*4:])
	}
	return out, nil
}

// StoreRange writes vals back to positions [lo, lo+len(vals)) with a
// read-modify-write of the boundary pages.
func (vv *Values) StoreRange(lo uint32, vals []uint32) error {
	if len(vals) == 0 {
		return nil
	}
	hi := lo + uint32(len(vals))
	if hi > vv.slots() {
		return fmt.Errorf("csr: value store [%d,%d) out of [0,%d)", lo, hi, vv.slots())
	}
	ps := vv.dev.PageSize()
	bLo, bHi := int64(lo)*4, int64(hi)*4
	pLo, pHi := int(bLo/int64(ps)), int((bHi-1)/int64(ps))
	nPages := pHi - pLo + 1
	buf := make([]byte, nPages*ps)
	// RMW: fetch boundary pages when the range does not cover them fully.
	if bLo%int64(ps) != 0 {
		if err := vv.f.ReadPage(pLo, buf[:ps]); err != nil {
			return err
		}
	}
	if bHi%int64(ps) != 0 && (nPages > 1 || bLo%int64(ps) == 0) {
		if err := vv.f.ReadPage(pHi, buf[(nPages-1)*ps:]); err != nil {
			return err
		}
	}
	base := bLo - int64(pLo)*int64(ps)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[base+int64(i)*4:], v)
	}
	return vv.f.WritePageRange(pLo, buf)
}

// LoadAll reads the whole array (every slot of every lane). Intended for
// result extraction after a run, not for per-superstep use.
func (vv *Values) LoadAll() ([]uint32, error) {
	return vv.LoadRange(0, vv.slots())
}
