// Package shard implements GraphChi's on-device graph layout (§II-A of
// the paper): the vertex range is split into intervals (shared with the
// CSR layout so comparisons are fair), and shard k stores every edge whose
// destination lies in interval k, sorted by source vertex. The
// source-sorted order is what makes the parallel-sliding-windows access
// pattern sequential: the out-edges of interval k's vertices form one
// contiguous block inside every other shard.
//
// Each edge record carries two value slots and two message flags so the
// GraphChi engine can run synchronously (BSP): writes in superstep s go to
// slot (s+1)%2 while reads in superstep s come from slot s%2, with
// copy-forward of unwritten slots at shard load. Synchronous execution is
// what lets the suite assert bit-identical results across engines.
package shard

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"multilogvc/internal/csr"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

// RecBytes is the on-device size of one edge record:
// src, dst, val0, val1, flags, weight (4 bytes each).
const RecBytes = 24

// Flag bits within a record's flags word.
const (
	FlagMsg0 = 1 << 0 // message pending in val0
	FlagMsg1 = 1 << 1 // message pending in val1
)

// Record is one decoded edge record.
type Record struct {
	Src, Dst uint32
	Val      [2]uint32
	Flags    uint32
	Weight   uint32 // static edge weight (0 on unweighted graphs)
}

// Store is a built shard set on a device.
type Store struct {
	dev   *ssd.Device
	name  string
	ivs   []csr.Interval
	n     uint32
	files []*ssd.File
	// counts[k] is the number of records in shard k.
	counts []int
	// blockIdx[k][j] is the index of the first record in shard k whose
	// source is >= ivs[j].Lo; blockIdx[k][len(ivs)] == counts[k]. The
	// sliding-window block of interval j inside shard k is
	// [blockIdx[k][j], blockIdx[k][j+1]).
	blockIdx [][]int
}

func shardName(name string, k int) string { return fmt.Sprintf("%s.shard.%d", name, k) }

// Build writes shard k of g for every interval k: the interval's in-edge
// lists as the in-CSR serves them (pending deltas included), sorted by
// (src, dst, weight). Only one interval's in-edges are in memory at a time.
// Every record's value slots start at initVal with no flags. The shards are
// created on g's device, so a scoped view charges their IO to its scope.
func Build(g *csr.Graph, name string, initVal uint32) (*Store, error) {
	dev, ivs := g.Device(), g.Intervals()
	s := &Store{dev: dev, name: name, ivs: ivs, n: g.NumVertices()}
	var verts []uint32
	var in csr.Arena
	var bucket []graphio.WeightedEdge
	for k, iv := range ivs {
		verts = iv.AppendVerts(verts[:0])
		in.Reset(len(verts), g.HasWeights())
		if _, err := g.FillInEdges(k, verts, nil, &in); err != nil {
			return nil, err
		}
		bucket = bucket[:0]
		for i, dst := range verts {
			weights := in.Weights(i)
			for j, src := range in.Edges(i) {
				e := graphio.WeightedEdge{Src: src, Dst: dst}
				if weights != nil {
					e.Weight = weights[j]
				}
				bucket = append(bucket, e)
			}
		}
		slices.SortFunc(bucket, func(a, b graphio.WeightedEdge) int {
			if c := cmp.Compare(uint64(a.Src)<<32|uint64(a.Dst), uint64(b.Src)<<32|uint64(b.Dst)); c != 0 {
				return c
			}
			return cmp.Compare(a.Weight, b.Weight)
		})
		f, err := dev.Create(shardName(name, k))
		if err != nil {
			return nil, err
		}
		w := ssd.NewWriter(f)
		var rec [RecBytes]byte
		for _, e := range bucket {
			encode(rec[:], Record{Src: e.Src, Dst: e.Dst, Val: [2]uint32{initVal, initVal}, Weight: e.Weight})
			if _, err := w.Write(rec[:]); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		s.files = append(s.files, f)
		s.counts = append(s.counts, len(bucket))

		// Window index.
		bi := make([]int, len(ivs)+1)
		for j := range ivs {
			lo := ivs[j].Lo
			bi[j] = sort.Search(len(bucket), func(i int) bool { return bucket[i].Src >= lo })
		}
		bi[len(ivs)] = len(bucket)
		s.blockIdx = append(s.blockIdx, bi)
	}
	return s, nil
}

// Count returns the number of records in shard k.
func (s *Store) Count(k int) int { return s.counts[k] }

// Intervals returns the shared vertex intervals.
func (s *Store) Intervals() []csr.Interval { return s.ivs }

// NumVertices returns the vertex count.
func (s *Store) NumVertices() uint32 { return s.n }

// TotalPages returns the number of device pages across all shards — the
// volume GraphChi reads every superstep.
func (s *Store) TotalPages() int {
	total := 0
	for _, f := range s.files {
		total += f.DataPages()
	}
	return total
}

// LoadShard reads shard k in full and decodes its records.
func (s *Store) LoadShard(k int) ([]Record, error) {
	f := s.files[k]
	np := f.DataPages()
	if np == 0 {
		return nil, nil
	}
	buf := make([]byte, np*s.dev.PageSize())
	if err := f.ReadPageRange(0, np, buf); err != nil {
		return nil, err
	}
	recs := make([]Record, s.counts[k])
	for i := range recs {
		off := i * RecBytes
		recs[i] = decode(buf[off:])
	}
	return recs, nil
}

// StoreShard writes shard k back in full.
func (s *Store) StoreShard(k int, recs []Record) error {
	if len(recs) != s.counts[k] {
		return fmt.Errorf("shard: record count changed: %d != %d", len(recs), s.counts[k])
	}
	ps := s.dev.PageSize()
	np := (len(recs)*RecBytes + ps - 1) / ps
	buf := make([]byte, np*ps)
	for i, r := range recs {
		encode(buf[i*RecBytes:], r)
	}
	if np == 0 {
		return nil
	}
	return s.files[k].WritePageRange(0, buf)
}

// Window is a loaded sliding-window block: the records of shard `shard`
// whose sources lie in one interval, together with the covering page
// images so it can be written back without touching neighboring blocks'
// bytes beyond the shared boundary pages.
type Window struct {
	store     *Store
	shard     int
	firstRec  int
	recs      []Record
	firstPage int
	pages     []byte
}

// LoadWindow reads the block of shard j holding the out-edges of interval
// k's vertices. The block may be empty.
func (s *Store) LoadWindow(j, k int) (*Window, error) {
	lo, hi := s.blockIdx[j][k], s.blockIdx[j][k+1]
	w := &Window{store: s, shard: j, firstRec: lo}
	if lo == hi {
		return w, nil
	}
	ps := s.dev.PageSize()
	bLo := lo * RecBytes
	bHi := hi * RecBytes
	pLo, pHi := bLo/ps, (bHi-1)/ps
	w.firstPage = pLo
	w.pages = make([]byte, (pHi-pLo+1)*ps)
	if err := s.files[j].ReadPageRange(pLo, pHi-pLo+1, w.pages); err != nil {
		return nil, err
	}
	w.recs = make([]Record, hi-lo)
	for i := range w.recs {
		off := (lo+i)*RecBytes - pLo*ps
		w.recs[i] = decode(w.pages[off:])
	}
	return w, nil
}

// Records returns the window's decoded records (mutable; call WriteBack to
// persist).
func (w *Window) Records() []Record { return w.recs }

// Find locates the record (src, dst) within the window via binary search
// on the source-sorted order; returns nil if absent.
func (w *Window) Find(src, dst uint32) *Record {
	i := sort.Search(len(w.recs), func(i int) bool {
		r := &w.recs[i]
		return r.Src > src || (r.Src == src && r.Dst >= dst)
	})
	if i < len(w.recs) && w.recs[i].Src == src && w.recs[i].Dst == dst {
		return &w.recs[i]
	}
	return nil
}

// WriteBack encodes the window's records into its page images and writes
// those pages to the device.
func (w *Window) WriteBack() error {
	if len(w.recs) == 0 {
		return nil
	}
	ps := w.store.dev.PageSize()
	for i, r := range w.recs {
		off := (w.firstRec+i)*RecBytes - w.firstPage*ps
		encode(w.pages[off:], r)
	}
	return w.store.files[w.shard].WritePageRange(w.firstPage, w.pages)
}

func decode(b []byte) Record {
	return Record{
		Src:    binary.LittleEndian.Uint32(b[0:]),
		Dst:    binary.LittleEndian.Uint32(b[4:]),
		Val:    [2]uint32{binary.LittleEndian.Uint32(b[8:]), binary.LittleEndian.Uint32(b[12:])},
		Flags:  binary.LittleEndian.Uint32(b[16:]),
		Weight: binary.LittleEndian.Uint32(b[20:]),
	}
}

func encode(b []byte, r Record) {
	binary.LittleEndian.PutUint32(b[0:], r.Src)
	binary.LittleEndian.PutUint32(b[4:], r.Dst)
	binary.LittleEndian.PutUint32(b[8:], r.Val[0])
	binary.LittleEndian.PutUint32(b[12:], r.Val[1])
	binary.LittleEndian.PutUint32(b[16:], r.Flags)
	binary.LittleEndian.PutUint32(b[20:], r.Weight)
}

// Remove deletes the shard files.
func (s *Store) Remove() error {
	for k := range s.files {
		if err := s.dev.Remove(shardName(s.name, k)); err != nil {
			return err
		}
	}
	return nil
}
