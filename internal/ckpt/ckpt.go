// Package ckpt implements superstep-boundary checkpointing for the
// MultiLogVC engine: atomically committed, CRC-checksummed snapshots of
// everything a superstep needs to restart — vertex values, the carry
// (active) bitset, the multi-log's pending messages, the edge log's
// current generation, the edge-log predictor's history, and per-in-edge
// aux state — plus resume from the latest valid checkpoint.
//
// # Commit protocol
//
// A checkpoint occupies one of two slots on the device, alternating by
// sequence number, so the previous checkpoint is never overwritten while
// the new one is in flight. Each slot holds a data file (the serialized
// payload) and a manifest file committed strictly afterwards:
//
//  1. truncate the slot's manifest   — the slot is now invalid
//  2. write the payload data file
//  3. write the manifest: magic, version, seq, step, payload length, CRC
//
// A crash at any point leaves at most one slot torn, and a torn slot is
// detectable: either its manifest is missing/short, or the payload CRC
// does not match. Load validates both slots and returns the one with the
// highest committed sequence, falling back to the older slot when the
// newer one is corrupt.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"multilogvc/internal/csr"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
)

const (
	magic   = 0x4D4C5643 // "MLVC"
	version = 1
	// manifestBytes is the fixed manifest payload: magic, version, seq,
	// step, payload length, payload CRC, then a CRC of those fields.
	manifestBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4
)

// ErrNoCheckpoint is returned by Load when neither slot holds a committed
// checkpoint — the expected state of a fresh device.
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// ErrCorrupt is returned when a committed checkpoint exists but no slot
// validates: some slot's manifest is intact while its payload fails the
// CRC or does not decode. A crash cannot produce this state — Save
// truncates the manifest before touching payload data — so it indicates
// data corruption, not an interrupted commit. Slots with torn or missing
// manifests are interrupted commits and read as "no checkpoint" instead.
var ErrCorrupt = errors.New("ckpt: checkpoint corrupt")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MsgRec is one pending multi-log message.
type MsgRec struct {
	Dst, Src, Data uint32
}

// ElogEntry is one vertex's re-logged adjacency.
type ElogEntry struct {
	V       uint32
	Nbrs    []uint32
	Weights []uint32 // nil for unweighted graphs
}

// State is the complete restartable engine state at a superstep boundary:
// everything Run holds between the end of superstep Step-1 and the start
// of superstep Step.
type State struct {
	App   string
	Graph string
	Seq   uint64 // commit sequence, monotonically increasing per run chain
	Step  int    // next superstep to execute

	NumVertices  uint32
	CumProcessed uint64

	Carry  []uint64 // carry bitset words
	Values []uint32 // vertex values, one per vertex

	// Multi-log: the current generation's pending messages, per interval.
	Msgs [][]MsgRec

	// Edge log: current generation, nil when the optimizer is disabled.
	Elog []ElogEntry
	// Predictor history (parallel to the edge log): previous-superstep
	// active bits and inefficient pages. PredActive nil = no predictor.
	PredActive []uint64
	PredIneff  []csr.PageKey

	// Aux: per-in-edge state per interval, nil for programs without it.
	Aux [][]uint32

	// Supersteps carries the completed supersteps' stats so a resumed
	// run's report covers the whole logical run.
	Supersteps []metrics.SuperstepStats
}

func dataName(prefix string, slot uint64) string {
	return fmt.Sprintf("%s.ckpt.%d", prefix, slot)
}

func metaName(prefix string, slot uint64) string {
	return fmt.Sprintf("%s.ckpt.%d.meta", prefix, slot)
}

// Save serializes st and commits it to slot st.Seq%2 on the device under
// the given file prefix. The write is charged to the device like any other
// IO — checkpoint overhead is measurable in the run's stats.
func Save(dev *ssd.Device, prefix string, st *State) error {
	payload, err := encode(st)
	if err != nil {
		return err
	}
	slot := st.Seq % 2

	// 1. Invalidate the slot before touching its data file: a crash
	// between here and the manifest write must not leave a stale manifest
	// pointing at new (partial) payload bytes.
	meta, err := dev.OpenOrCreate(metaName(prefix, slot))
	if err != nil {
		return err
	}
	if err := meta.Truncate(); err != nil {
		return err
	}

	// 2. Payload.
	data, err := dev.OpenOrCreate(dataName(prefix, slot))
	if err != nil {
		return err
	}
	if err := data.Truncate(); err != nil {
		return err
	}
	w := ssd.NewWriter(data)
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}

	// 3. Manifest — the commit point.
	var m [manifestBytes]byte
	binary.LittleEndian.PutUint32(m[0:], magic)
	binary.LittleEndian.PutUint32(m[4:], version)
	binary.LittleEndian.PutUint64(m[8:], st.Seq)
	binary.LittleEndian.PutUint64(m[16:], uint64(st.Step))
	binary.LittleEndian.PutUint64(m[24:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(m[32:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(m[36:], crc32.Checksum(m[:36], crcTable))
	mw := ssd.NewWriter(meta)
	if _, err := mw.Write(m[:]); err != nil {
		return err
	}
	return mw.Close()
}

// GCStale removes the checkpoint slot NOT holding sequence newestSeq —
// the older of the two alternating slots — freeing its device pages. It is
// the checkpoint unit's space-reclamation hook (ssd.Device.AddReclaimer):
// under disk pressure the stale slot's redundancy is traded for space. The
// newest committed slot is never touched, so recovery always has a valid
// checkpoint. Missing files (slot never written, or already collected) are
// not an error.
func GCStale(dev *ssd.Device, prefix string, newestSeq uint64) error {
	stale := (newestSeq + 1) % 2
	for _, name := range []string{dataName(prefix, stale), metaName(prefix, stale)} {
		if err := dev.Remove(name); err != nil && !errors.Is(err, ssd.ErrNotExist) {
			return err
		}
	}
	return nil
}

// Load returns the newest committed checkpoint under prefix. A slot with
// a torn or missing manifest (an interrupted commit) is skipped; a slot
// with a committed manifest but failing payload is corruption evidence.
// ErrNoCheckpoint means no committed checkpoint exists; ErrCorrupt means
// a committed one exists but nothing validates. A slot the device could not
// read is evidence of neither: with no valid slot, Load returns the device's
// own classified error.
func Load(dev *ssd.Device, prefix string) (*State, error) {
	var best *State
	var readErr error
	sawCorrupt := false
	for slot := uint64(0); slot < 2; slot++ {
		st, corrupt, err := loadSlot(dev, prefix, slot)
		sawCorrupt = sawCorrupt || corrupt
		if err != nil && readErr == nil {
			readErr = err
		}
		if err != nil || st == nil {
			continue
		}
		if best == nil || st.Seq > best.Seq {
			best = st
		}
	}
	if best != nil {
		return best, nil
	}
	if readErr != nil {
		return nil, fmt.Errorf("ckpt: reading %q: %w", prefix, readErr)
	}
	if sawCorrupt {
		return nil, fmt.Errorf("%w: no slot of %q validates", ErrCorrupt, prefix)
	}
	return nil, fmt.Errorf("%w under %q", ErrNoCheckpoint, prefix)
}

// loadSlot validates one slot. corrupt reports a committed manifest whose
// payload fails validation — evidence of data corruption rather than an
// interrupted commit.
func loadSlot(dev *ssd.Device, prefix string, slot uint64) (st *State, corrupt bool, err error) {
	meta, merr := dev.OpenFile(metaName(prefix, slot))
	data, derr := dev.OpenFile(dataName(prefix, slot))
	if merr != nil || derr != nil || meta.NumPages() == 0 {
		return nil, false, nil // interrupted or never-written commit
	}
	var m [manifestBytes]byte
	if err := meta.ReadAt(m[:], 0); err != nil {
		if errors.Is(err, ssd.ErrCorruptPage) {
			// A manifest page failing its device checksum is corruption
			// evidence, not an interrupted commit — keep scanning slots.
			return nil, true, nil
		}
		return nil, false, err
	}
	if binary.LittleEndian.Uint32(m[0:]) != magic ||
		binary.LittleEndian.Uint32(m[4:]) != version ||
		binary.LittleEndian.Uint32(m[36:]) != crc32.Checksum(m[:36], crcTable) {
		return nil, false, nil // torn manifest: commit never completed
	}
	seq := binary.LittleEndian.Uint64(m[8:])
	step := int(binary.LittleEndian.Uint64(m[16:]))
	plen := binary.LittleEndian.Uint64(m[24:])
	wantCRC := binary.LittleEndian.Uint32(m[32:])
	ps := uint64(dev.PageSize())
	if plen == 0 || uint64(data.NumPages())*ps < plen {
		return nil, true, nil // committed manifest, missing payload
	}
	payload := make([]byte, plen)
	if err := data.ReadAt(payload, 0); err != nil {
		if errors.Is(err, ssd.ErrCorruptPage) {
			return nil, true, nil // corrupt payload page: try the other slot
		}
		return nil, false, err
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, true, nil
	}
	st, err = decode(payload)
	if err != nil {
		return nil, true, nil // undecodable despite CRC
	}
	st.Seq = seq
	st.Step = step
	return st, false, nil
}

// encode serializes the state as a little-endian binary stream. The
// superstep stats ride along as a JSON blob — they are report metadata,
// not hot-path data, and JSON keeps them schema-stable.
func encode(st *State) ([]byte, error) {
	var b bytes.Buffer
	putStr := func(s string) {
		putU32(&b, uint32(len(s)))
		b.WriteString(s)
	}
	putStr(st.App)
	putStr(st.Graph)
	putU32(&b, st.NumVertices)
	putU64(&b, st.CumProcessed)

	putU32(&b, uint32(len(st.Carry)))
	for _, w := range st.Carry {
		putU64(&b, w)
	}
	putU32(&b, uint32(len(st.Values)))
	for _, v := range st.Values {
		putU32(&b, v)
	}

	putU32(&b, uint32(len(st.Msgs)))
	for _, recs := range st.Msgs {
		putU32(&b, uint32(len(recs)))
		for _, r := range recs {
			putU32(&b, r.Dst)
			putU32(&b, r.Src)
			putU32(&b, r.Data)
		}
	}

	putU32(&b, uint32(len(st.Elog)))
	for _, e := range st.Elog {
		putU32(&b, e.V)
		putU32(&b, uint32(len(e.Nbrs)))
		for _, nb := range e.Nbrs {
			putU32(&b, nb)
		}
		if e.Weights != nil {
			putU32(&b, 1)
			for _, w := range e.Weights {
				putU32(&b, w)
			}
		} else {
			putU32(&b, 0)
		}
	}

	if st.PredActive == nil {
		putU32(&b, 0)
	} else {
		putU32(&b, 1)
		putU32(&b, uint32(len(st.PredActive)))
		for _, w := range st.PredActive {
			putU64(&b, w)
		}
		putU32(&b, uint32(len(st.PredIneff)))
		for _, k := range st.PredIneff {
			b.WriteByte(k.Side)
			putU32(&b, uint32(k.Interval))
			putU32(&b, uint32(k.Page))
		}
	}

	putU32(&b, uint32(len(st.Aux)))
	for _, vals := range st.Aux {
		putU32(&b, uint32(len(vals)))
		for _, v := range vals {
			putU32(&b, v)
		}
	}

	stats, err := json.Marshal(st.Supersteps)
	if err != nil {
		return nil, err
	}
	putU32(&b, uint32(len(stats)))
	b.Write(stats)
	return b.Bytes(), nil
}

func decode(payload []byte) (*State, error) {
	r := &reader{buf: payload}
	st := &State{}
	st.App = r.str()
	st.Graph = r.str()
	st.NumVertices = r.u32()
	st.CumProcessed = r.u64()

	st.Carry = make([]uint64, r.u32())
	for i := range st.Carry {
		st.Carry[i] = r.u64()
	}
	st.Values = make([]uint32, r.u32())
	for i := range st.Values {
		st.Values[i] = r.u32()
	}

	st.Msgs = make([][]MsgRec, r.u32())
	for i := range st.Msgs {
		recs := make([]MsgRec, r.u32())
		for j := range recs {
			recs[j] = MsgRec{Dst: r.u32(), Src: r.u32(), Data: r.u32()}
		}
		st.Msgs[i] = recs
	}

	st.Elog = make([]ElogEntry, r.u32())
	for i := range st.Elog {
		e := ElogEntry{V: r.u32()}
		e.Nbrs = make([]uint32, r.u32())
		for j := range e.Nbrs {
			e.Nbrs[j] = r.u32()
		}
		if r.u32() == 1 {
			e.Weights = make([]uint32, len(e.Nbrs))
			for j := range e.Weights {
				e.Weights[j] = r.u32()
			}
		}
		st.Elog[i] = e
	}

	if r.u32() == 1 {
		st.PredActive = make([]uint64, r.u32())
		for i := range st.PredActive {
			st.PredActive[i] = r.u64()
		}
		st.PredIneff = make([]csr.PageKey, r.u32())
		for i := range st.PredIneff {
			st.PredIneff[i] = csr.PageKey{
				Side:     r.byte(),
				Interval: int32(r.u32()),
				Page:     int32(r.u32()),
			}
		}
	}

	st.Aux = make([][]uint32, r.u32())
	if len(st.Aux) == 0 {
		st.Aux = nil
	}
	for i := range st.Aux {
		vals := make([]uint32, r.u32())
		for j := range vals {
			vals[j] = r.u32()
		}
		st.Aux[i] = vals
	}

	stats := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	if len(stats) > 0 {
		if err := json.Unmarshal(stats, &st.Supersteps); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func putU32(b *bytes.Buffer, v uint32) {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	b.Write(t[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	b.Write(t[:])
}

// reader decodes the payload with sticky error handling: after the first
// short read every accessor returns zero values and err stays set.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("ckpt: truncated payload at %d(+%d)/%d", r.pos, n, len(r.buf))
		}
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) byte() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	return string(r.bytes(int(r.u32())))
}
