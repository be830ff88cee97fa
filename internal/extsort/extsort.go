// Package extsort externally sorts update records (vc.Msg, 12 bytes on the
// device) by destination within a memory budget: it cuts the input into
// sorted runs on the device, then streams a k-way merge. An optional
// combine function merges records with equal destinations during both
// phases — GraFBoost's central trick for shortening its single log (the
// paper's [11]).
//
// The IO this package performs (run writes + run reads) is exactly the
// sorting overhead the paper's Fig 8 attributes GraFBoost's slowdown to
// when logs outgrow memory.
package extsort

import (
	"container/heap"
	"encoding/binary"
	"fmt"

	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// RecordBytes is the on-device record size.
const RecordBytes = 12

// Record is the update record under its old name. The package sorts
// vc.Msg; the alias remains only because the benchmark module names it.
type Record = vc.Msg

// PutRecord encodes r into b[:RecordBytes] in the on-device layout every
// update log shares: dst, src and data as little-endian uint32s.
func PutRecord(b []byte, r vc.Msg) {
	_ = b[RecordBytes-1]
	binary.LittleEndian.PutUint32(b, r.Dst)
	binary.LittleEndian.PutUint32(b[4:], r.Src)
	binary.LittleEndian.PutUint32(b[8:], r.Data)
}

// GetRecord decodes the record PutRecord encoded at the head of b.
func GetRecord(b []byte) vc.Msg {
	_ = b[RecordBytes-1]
	return vc.Msg{
		Dst:  binary.LittleEndian.Uint32(b),
		Src:  binary.LittleEndian.Uint32(b[4:]),
		Data: binary.LittleEndian.Uint32(b[8:]),
	}
}

// Stats reports what the sort did.
type Stats struct {
	Input    uint64 // records in
	Output   uint64 // records out (smaller when combining)
	Runs     int    // sorted runs spilled to the device (0 = in-memory)
	Combined uint64 // records eliminated by combining
}

// Emit receives sorted output records.
type Emit func(r vc.Msg) error

// Source streams input records.
type Source func(yield func(r vc.Msg) error) error

// Sort sorts the records produced by src by destination within memBudget
// bytes of record memory, spilling runs to device files "<prefix>.run.N".
// When combine is non-nil, records with equal destinations are merged.
// Run files are deleted afterwards.
func Sort(dev *ssd.Device, prefix string, src Source, memBudget int64, combine func(a, b uint32) uint32, emit Emit) (Stats, error) {
	capRecs := int(memBudget / RecordBytes)
	if capRecs < 2 {
		capRecs = 2
	}

	rs := NewRuns(dev, prefix, combine)
	defer rs.Remove()
	buf := make([]vc.Msg, 0, capRecs)

	err := src(func(r vc.Msg) error {
		rs.st.Input++
		buf = append(buf, r)
		if len(buf) >= capRecs {
			err := rs.Flush(buf)
			buf = buf[:0]
			return err
		}
		return nil
	})
	if err != nil {
		return rs.st, err
	}

	if rs.NumRuns() == 0 {
		// Everything fit in memory: no external phase.
		rs.scratch = SortByDst(buf, rs.scratch)
		if combine != nil {
			buf = combineSorted(buf, combine, &rs.st)
		}
		for _, r := range buf {
			if err := emit(r); err != nil {
				return rs.st, err
			}
			rs.st.Output++
		}
		return rs.st, nil
	}
	if err := rs.Flush(buf); err != nil {
		return rs.st, err
	}

	m := rs.Merge()
	for {
		r, ok, err := m.Next()
		if err != nil {
			return rs.st, err
		}
		if !ok {
			break
		}
		if err := emit(r); err != nil {
			return rs.st, err
		}
		rs.st.Output++
	}
	return rs.st, nil
}

// Runs accumulates sorted runs on the device for a later streaming merge —
// the building block Sort (and sortgroup's spill path) is made of. Each
// Flush sorts one memory-budget-sized chunk and writes it as run file
// "<prefix>.run.N"; Merge streams the k-way merged record sequence. The
// caller owns the run files' lifetime and must call Remove when done.
type Runs struct {
	dev     *ssd.Device
	prefix  string
	combine func(a, b uint32) uint32
	files   []*ssd.File
	counts  []uint64
	st      Stats
	scratch []byte // SortByDst's second buffer, kept from Flush to Flush
}

// NewRuns prepares a run accumulator. combine, when non-nil, merges
// equal-destination records within each run and across runs during Merge.
func NewRuns(dev *ssd.Device, prefix string, combine func(a, b uint32) uint32) *Runs {
	return &Runs{dev: dev, prefix: prefix, combine: combine}
}

// Flush sorts recs and writes them as one run. The slice is sorted in
// place and may be reused by the caller afterwards. Empty input is a no-op.
func (rs *Runs) Flush(recs []vc.Msg) error {
	if len(recs) == 0 {
		return nil
	}
	rs.scratch = SortByDst(recs, rs.scratch)
	if rs.combine != nil {
		recs = combineSorted(recs, rs.combine, &rs.st)
	}
	name := fmt.Sprintf("%s.run.%d", rs.prefix, len(rs.files))
	f, err := rs.dev.OpenOrCreate(name)
	if err != nil {
		return err
	}
	f.SetReadOnce() // a run is merged once, then removed
	if err := f.Truncate(); err != nil {
		return err
	}
	w := ssd.NewWriter(f)
	for _, r := range recs {
		if err := writeRec(w, r); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	rs.files = append(rs.files, f)
	rs.counts = append(rs.counts, uint64(len(recs)))
	rs.st.Runs = len(rs.files)
	return nil
}

// NumRuns returns how many runs have been flushed.
func (rs *Runs) NumRuns() int { return len(rs.files) }

// BytesWritten returns the record bytes written across all runs.
func (rs *Runs) BytesWritten() int64 {
	var n uint64
	for _, c := range rs.counts {
		n += c
	}
	return int64(n) * RecordBytes
}

// Stats returns the accumulated sort statistics.
func (rs *Runs) Stats() Stats { return rs.st }

// Remove deletes every run file. Safe to call more than once.
func (rs *Runs) Remove() {
	for i := range rs.files {
		rs.dev.Remove(fmt.Sprintf("%s.run.%d", rs.prefix, i))
	}
	rs.files = nil
	rs.counts = nil
}

// Merge starts the k-way merge over every flushed run and returns the
// streaming iterator. No further Flush calls are allowed afterwards.
func (rs *Runs) Merge() *Merger {
	rs.scratch = nil // no Flush follows: the merge holds one record per run
	m := &Merger{rs: rs, h: &runHeap{}}
	for i, f := range rs.files {
		rr := &runReader{r: ssd.NewReader(f, 16), remaining: rs.counts[i], run: i}
		if rr.advance() {
			heap.Push(m.h, rr)
		} else if rr.err != nil {
			m.err = rr.err
		}
	}
	return m
}

// Merger streams the merged, destination-ordered record sequence of a run
// set; records of one destination come out in the order they were flushed
// (earlier run first, and in input order within a run). Unlike Sort's
// internal merge it is pull-based, so a consumer can process the output in
// memory-bounded chunks (sortgroup's spill mode).
type Merger struct {
	rs          *Runs
	h           *runHeap
	pending     vc.Msg
	havePending bool
	err         error
}

// Next returns the next merged record. The second result is false when the
// sequence is exhausted. Read errors on run files surface here — a Merger
// never silently truncates its output.
func (m *Merger) Next() (vc.Msg, bool, error) {
	if m.err != nil {
		return vc.Msg{}, false, m.err
	}
	for m.h.Len() > 0 {
		rr := (*m.h)[0]
		cur := rr.cur
		if rr.advance() {
			heap.Fix(m.h, 0)
		} else {
			if rr.err != nil {
				m.err = rr.err
				return vc.Msg{}, false, m.err
			}
			heap.Pop(m.h)
		}
		if m.rs.combine != nil && m.havePending && m.pending.Dst == cur.Dst {
			m.pending.Data = m.rs.combine(m.pending.Data, cur.Data)
			m.rs.st.Combined++
			continue
		}
		if m.havePending {
			m.pending, cur = cur, m.pending
			m.rs.st.Output++
			return cur, true, nil
		}
		m.pending = cur
		m.havePending = true
	}
	if m.havePending {
		m.havePending = false
		m.rs.st.Output++
		return m.pending, true, nil
	}
	return vc.Msg{}, false, nil
}

// Close releases the merger and deletes the underlying run files.
func (m *Merger) Close() {
	*m.h = (*m.h)[:0]
	m.havePending = false
	m.rs.Remove()
}

// combineSorted merges equal-destination neighbors in a dst-sorted slice.
func combineSorted(recs []vc.Msg, combine func(a, b uint32) uint32, st *Stats) []vc.Msg {
	if len(recs) == 0 {
		return recs
	}
	w := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].Dst == recs[w].Dst {
			recs[w].Data = combine(recs[w].Data, recs[i].Data)
			st.Combined++
		} else {
			w++
			recs[w] = recs[i]
		}
	}
	return recs[:w+1]
}

func writeRec(w *ssd.Writer, r vc.Msg) error {
	var b [RecordBytes]byte
	PutRecord(b[:], r)
	_, err := w.Write(b[:])
	return err
}

// runReader streams one run during the merge.
type runReader struct {
	r         *ssd.Reader
	run       int // flush order: the tie-break that keeps the merge stable
	remaining uint64
	cur       vc.Msg
	err       error             // sticky read failure; checked by Merger
	buf       [RecordBytes]byte // the encoded cur; a local would escape through ReadFull
}

// advance loads the next record into cur; false at end of run or on a read
// error (recorded in err so the merge can surface it).
func (rr *runReader) advance() bool {
	if rr.remaining == 0 {
		return false
	}
	rec := rr.buf[:]
	if err := rr.r.ReadFull(rec); err != nil {
		rr.err = err
		return false
	}
	rr.cur = GetRecord(rec)
	rr.remaining--
	return true
}

type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	return h[i].cur.Dst < h[j].cur.Dst || h[i].cur.Dst == h[j].cur.Dst && h[i].run < h[j].run
}
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
