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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"multilogvc/internal/csr"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
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
	Msgs [][]vc.Msg

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
	m := manifest{magic: magic, version: version, seq: st.Seq, step: uint64(st.Step),
		plen: uint64(len(payload)), crc: crc32.Checksum(payload, crcTable)}
	c := &codec{write: true}
	m.walk(c)
	mw := ssd.NewWriter(meta)
	if _, err := mw.Write(binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(c.buf, crcTable))); err != nil {
		return err
	}
	return mw.Close()
}

// manifest is a slot's commit record. On the device it is followed by a
// CRC of its own bytes, which makes manifestBytes.
type manifest struct {
	magic, version  uint32
	seq, step, plen uint64 // plen: payload length
	crc             uint32 // payload CRC
}

func (m *manifest) walk(c *codec) {
	c.u32(&m.magic)
	c.u32(&m.version)
	c.u64(&m.seq)
	c.u64(&m.step)
	c.u64(&m.plen)
	c.u32(&m.crc)
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
	var raw [manifestBytes]byte
	if err := meta.ReadAt(raw[:], 0); err != nil {
		if errors.Is(err, ssd.ErrCorruptPage) {
			// A manifest page failing its device checksum is corruption
			// evidence, not an interrupted commit — keep scanning slots.
			return nil, true, nil
		}
		return nil, false, err
	}
	var m manifest
	body := raw[:manifestBytes-4]
	m.walk(&codec{buf: body})
	if m.magic != magic || m.version != version ||
		binary.LittleEndian.Uint32(raw[len(body):]) != crc32.Checksum(body, crcTable) {
		return nil, false, nil // torn manifest: commit never completed
	}
	ps := uint64(dev.PageSize())
	if m.plen == 0 || uint64(data.NumPages())*ps < m.plen {
		return nil, true, nil // committed manifest, missing payload
	}
	payload := make([]byte, m.plen)
	if err := data.ReadAt(payload, 0); err != nil {
		if errors.Is(err, ssd.ErrCorruptPage) {
			return nil, true, nil // corrupt payload page: try the other slot
		}
		return nil, false, err
	}
	if crc32.Checksum(payload, crcTable) != m.crc {
		return nil, true, nil
	}
	st, err = decode(payload)
	if err != nil {
		return nil, true, nil // undecodable despite CRC
	}
	st.Seq = m.seq
	st.Step = int(m.step)
	return st, false, nil
}

// encode serializes the state as a little-endian binary stream.
func encode(st *State) ([]byte, error) {
	c := &codec{write: true}
	err := st.walk(c)
	return c.buf, err
}

// decode parses what encode wrote.
func decode(payload []byte) (*State, error) {
	st := &State{}
	if err := st.walk(&codec{buf: payload}); err != nil {
		return nil, err
	}
	return st, nil
}

// walk is the payload's one declaration: every field in its order on the
// device, each slice behind a u32 length. A reading codec fills st, a
// writing one serializes it. The superstep stats ride along as a JSON
// blob — they are report metadata, not hot-path data, and JSON keeps them
// schema-stable.
func (st *State) walk(c *codec) error {
	c.str(&st.App)
	c.str(&st.Graph)
	c.u32(&st.NumVertices)
	c.u64(&st.CumProcessed)
	walkSlice(c, &st.Carry, 8, c.u64)
	walkSlice(c, &st.Values, 4, c.u32)
	walkSlice(c, &st.Msgs, 4, func(recs *[]vc.Msg) {
		walkSlice(c, recs, 12, func(m *vc.Msg) {
			c.u32(&m.Dst)
			c.u32(&m.Src)
			c.u32(&m.Data)
		})
	})
	walkSlice(c, &st.Elog, 12, func(e *ElogEntry) {
		c.u32(&e.V)
		walkSlice(c, &e.Nbrs, 4, c.u32)
		if c.flag(e.Weights != nil) {
			walkFixed(c, &e.Weights, len(e.Nbrs), 4, c.u32)
		}
	})
	if c.flag(st.PredActive != nil) {
		walkSlice(c, &st.PredActive, 8, c.u64)
		walkSlice(c, &st.PredIneff, 9, func(k *csr.PageKey) {
			iv, page := uint32(k.Interval), uint32(k.Page)
			c.u8(&k.Side)
			c.u32(&iv)
			c.u32(&page)
			k.Interval, k.Page = int32(iv), int32(page)
		})
	}
	walkSlice(c, &st.Aux, 4, func(vals *[]uint32) { walkSlice(c, vals, 4, c.u32) })
	if !c.write && len(st.Aux) == 0 {
		st.Aux = nil
	}

	var stats []byte
	if c.write {
		var err error
		if stats, err = json.Marshal(st.Supersteps); err != nil {
			return err
		}
	}
	c.bytes(&stats)
	if c.err != nil || c.write || len(stats) == 0 {
		return c.err
	}
	return json.Unmarshal(stats, &st.Supersteps)
}

// codec walks a checkpoint's bytes in one direction. Writing, each field
// it is handed is appended to buf; reading, each is filled from the head
// of buf. After a short read err is set and every later field reads as
// zero.
type codec struct {
	write bool
	buf   []byte
	err   error
}

// fits reports whether n elements of at least size bytes each can follow
// in a reading codec, and fails it when they cannot: a length prefix is
// checked against the bytes left before anything is allocated for it.
func (c *codec) fits(n, size int) bool {
	if c.err == nil && uint64(n)*uint64(size) > uint64(len(c.buf)) {
		c.err = fmt.Errorf("ckpt: truncated payload: %d×%d bytes wanted, %d left", n, size, len(c.buf))
	}
	return c.err == nil
}

// take consumes the next n bytes of a reading codec.
func (c *codec) take(n int) []byte {
	if !c.fits(n, 1) {
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// flag walks a u32 that is 1 when an optional section follows.
func (c *codec) flag(present bool) bool {
	var f uint32
	if present {
		f = 1
	}
	c.u32(&f)
	return f == 1
}

func (c *codec) u8(v *uint8) {
	if c.write {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *codec) u32(v *uint32) {
	if c.write {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if c.write {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// bytes walks a u32 length and that many bytes; reading, *b aliases buf.
func (c *codec) bytes(b *[]byte) {
	n := uint32(len(*b))
	if c.u32(&n); c.write {
		c.buf = append(c.buf, *b...)
	} else {
		*b = c.take(int(n))
	}
}

func (c *codec) str(s *string) {
	b := []byte(*s)
	if c.bytes(&b); !c.write {
		*s = string(b)
	}
}

// walkSlice walks a u32 length and then each element of *s; every element
// takes at least size bytes.
func walkSlice[T any](c *codec, s *[]T, size int, elem func(*T)) {
	n := uint32(len(*s))
	c.u32(&n)
	walkFixed(c, s, int(n), size, elem)
}

// walkFixed walks the n elements of *s. Reading, it allocates *s only
// once the bytes left can hold them.
func walkFixed[T any](c *codec, s *[]T, n, size int, elem func(*T)) {
	if !c.write {
		if !c.fits(n, size) {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}
