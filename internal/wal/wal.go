// Package wal is the edge-mutation write-ahead log behind durable
// streaming ingest (csr.OpenIngest): an append-only stream of fixed-size
// CRC32C-framed mutation records on the ssd device model.
//
// Durability contract: Append returns only after its records are on the
// device, so a mutation acknowledged to a client survives kill -9. Group
// commit keeps that affordable — appends arriving within FlushEvery
// coalesce into one page-batch write (the fsync analogue on the device
// model); FlushEvery <= 0 degenerates to a synchronous flush per append.
//
// Replay contract: Open scans the stream and accepts the longest prefix
// of frames whose magic byte, CRC32C, and sequence continuity all hold.
// The first bad frame marks a torn tail (a crash mid group-commit); the
// prefix property plus in-order flushing guarantee the accepted frames
// are exactly "everything acknowledged, plus possibly a durable-but-
// unacknowledged suffix" — never a gap.
//
// Bounded size: the delta merge is the WAL's checkpoint. After a merge
// folds mutations through sequence S into the CSR files, TruncateThrough(S)
// drops their frames, so the WAL only ever holds the unmerged window.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// Record is one edge mutation in the log.
type Record struct {
	Op  uint8 // OpAdd or OpDel
	Src uint32
	Dst uint32
	W   uint32 // weight (OpAdd on weighted graphs; 0 otherwise)
	Seq uint64 // assigned by the log at append
}

// Mutation opcodes.
const (
	OpAdd uint8 = 1
	OpDel uint8 = 2
)

// FrameSize is the on-device size of one framed record:
// magic(1) op(1) src(4) dst(4) w(4) seq(8) crc32c(4).
const FrameSize = 26

const frameMagic = 0xE7

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// Options configures a Log.
type Options struct {
	// FlushEvery is the group-commit window: the first append after a
	// flush arms a timer, and every append arriving before it fires
	// shares one page-batch write. <= 0 flushes synchronously per append.
	FlushEvery time.Duration
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends       uint64 // records made durable (acknowledged)
	Flushes       uint64 // group-commit writes
	FlushedFrames uint64 // frames those flushes carried
	Replayed      uint64 // frames accepted by replay at Open
	TornTails     uint64 // torn tails truncated (at Open)
	Truncates     uint64 // checkpoint truncations
	DurableBytes  int64  // current logical stream length
	LastSeq       uint64 // highest durable sequence number
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; Append blocks until its records are durable.
type Log struct {
	f    *ssd.File
	ps   int
	opts Options

	mu      sync.Mutex
	nextSeq uint64   // last sequence number handed out
	durable int64    // logical byte length of the durable stream
	tail    []byte   // content of the partial tail page (len = durable % ps)
	live    []Record // durable, untruncated frames (in-memory mirror)
	pend    []Record // appended, not yet flushed
	pendB   []byte   // encoded pend frames, in seq order
	waiters []chan error
	timer   *time.Timer
	failed  error // sticky after a flush or truncate write failure
	closed  bool
	st      Stats
}

// Open opens (or creates) the named log on dev and replays it: the
// returned records are every frame in the accepted prefix, in sequence
// order, for the caller to fold into its in-memory state. A torn tail is
// truncated in place so the durable stream is exactly what was returned.
//
// Log IO is charged to the scope of the device handle dev: csr.OpenIngest
// passes the ingest plane's, so WAL traffic lands in the ingest stage and
// is never smeared over queries.
func Open(dev *ssd.Device, name string, opts Options) (*Log, []Record, error) {
	f, err := dev.OpenOrCreate(name)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %q: %w", name, err)
	}
	l := &Log{f: f, ps: dev.PageSize(), opts: opts}

	np := f.NumPages()
	buf := make([]byte, np*l.ps)
	if np > 0 {
		if err := f.ReadPageRange(0, np, buf); err != nil {
			return nil, nil, fmt.Errorf("wal: replay %q: %w", name, err)
		}
	}
	recs, consumed, torn := DecodeFrames(buf)
	l.live = recs
	l.durable = int64(consumed)
	tailLen := consumed % l.ps
	l.tail = append([]byte(nil), buf[consumed-tailLen:consumed]...)
	if len(recs) > 0 {
		l.nextSeq = recs[len(recs)-1].Seq
		l.st.LastSeq = l.nextSeq
	}
	l.st.Replayed = uint64(len(recs))
	live := obsv.Live()
	live.WALReplayed.Add(int64(len(recs)))
	if torn {
		// Rewrite the accepted prefix so no stale bytes linger past the
		// logical end: the next crash's replay must only ever see frames
		// this incarnation wrote.
		l.st.TornTails++
		live.WALTornTails.Add(1)
		if err := l.rewriteLocked(recs); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %q: %w", name, err)
		}
	}
	return l, recs, nil
}

// Append assigns the records their sequence numbers, writes them to the
// log, and blocks until they are durable. It returns the first and last
// assigned sequence numbers. On error nothing was acknowledged: the
// records may or may not be on the device, and the log refuses further
// appends until reopened (so acknowledged state never develops gaps).
func (l *Log) Append(recs []Record) (first, last uint64, err error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	err = l.append(recs, true)
	return recs[0].Seq, recs[len(recs)-1].Seq, err
}

// append is the body of Append and AppendAt. With number set it assigns
// recs the log's next sequence numbers; otherwise recs must already carry
// them, extending the log contiguously (else ErrSeqGap and nothing is
// logged). Either way it frames the batch into the pending group commit
// and blocks until that commit lands.
func (l *Log) append(recs []Record, number bool) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	err := l.failed
	if err == nil && l.closed {
		err = ErrClosed
	}
	for i := 0; err == nil && i < len(recs); i++ {
		want := l.nextSeq + 1 + uint64(i)
		if number {
			recs[i].Seq = want
		} else if recs[i].Seq != want {
			err = fmt.Errorf("%w: batch has seq %d at index %d, log expects %d", ErrSeqGap, recs[i].Seq, i, want)
		}
	}
	if err != nil {
		l.mu.Unlock()
		return err
	}
	for _, r := range recs {
		l.pendB = appendFrame(l.pendB, r)
	}
	l.nextSeq = recs[len(recs)-1].Seq
	l.pend = append(l.pend, recs...)

	if l.opts.FlushEvery <= 0 {
		err := l.flushLocked()
		l.mu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, ch)
	if l.timer == nil {
		l.timer = time.AfterFunc(l.opts.FlushEvery, l.flushTimer)
	}
	l.mu.Unlock()
	return <-ch
}

func (l *Log) flushTimer() {
	l.mu.Lock()
	l.timer = nil
	_ = l.flushLocked() // waiters hear the error; Append returns it
	l.mu.Unlock()
}

// flushLocked writes every pending frame as one page-batch (the group
// commit) and wakes the waiters. The partial tail page is rewritten with
// its old content preserved and the remainder zero-padded, so a torn
// write of this very batch can only damage the new frames, never the
// already-durable ones.
func (l *Log) flushLocked() error {
	if len(l.pendB) == 0 {
		l.notifyLocked(nil)
		return nil
	}
	startPage := int(l.durable) / l.ps
	head := len(l.tail)
	total := head + len(l.pendB)
	padded := (total + l.ps - 1) / l.ps * l.ps
	buf := make([]byte, padded)
	copy(buf, l.tail)
	copy(buf[head:], l.pendB)
	if err := l.f.WritePageRange(startPage, buf); err != nil {
		// The device refused the group commit; some of its pages may have
		// landed. Fail the log sticky: no caller acks, no later append may
		// extend a stream whose true durable length is now unknown. Reopen
		// replays the valid prefix and resumes cleanly.
		l.failed = fmt.Errorf("wal: group commit: %w", err)
		l.notifyLocked(l.failed)
		return l.failed
	}
	nd := l.durable + int64(len(l.pendB))
	l.f.SetSize(nd)
	l.live = append(l.live, l.pend...)
	l.durable = nd
	tailLen := int(nd % int64(l.ps))
	tailOff := int(nd-int64(tailLen)) - startPage*l.ps
	l.tail = append(l.tail[:0], buf[tailOff:tailOff+tailLen]...)
	l.st.Flushes++
	l.st.FlushedFrames += uint64(len(l.pend))
	l.st.Appends += uint64(len(l.pend))
	l.st.LastSeq = l.pend[len(l.pend)-1].Seq
	live := obsv.Live()
	live.WALFlushes.Add(1)
	live.WALFrames.Add(int64(len(l.pend)))
	l.pend = l.pend[:0]
	l.pendB = l.pendB[:0]
	l.notifyLocked(nil)
	return nil
}

func (l *Log) notifyLocked(err error) {
	for _, ch := range l.waiters {
		ch <- err
	}
	l.waiters = nil
}

// rewriteLocked replaces the durable stream with exactly keep.
func (l *Log) rewriteLocked(keep []Record) error {
	if err := l.f.Truncate(); err != nil {
		return err
	}
	var b []byte
	for _, r := range keep {
		b = appendFrame(b, r)
	}
	if len(b) > 0 {
		padded := (len(b) + l.ps - 1) / l.ps * l.ps
		buf := make([]byte, padded)
		copy(buf, b)
		if err := l.f.WritePageRange(0, buf); err != nil {
			return err
		}
	}
	l.f.SetSize(int64(len(b)))
	l.durable = int64(len(b))
	tailLen := len(b) % l.ps
	l.tail = append(l.tail[:0], b[len(b)-tailLen:]...)
	l.live = append(l.live[:0], keep...)
	return nil
}

// TruncateThrough drops every frame with sequence number <= seq — the
// checkpoint truncation a delta merge performs once those mutations are
// folded into the CSR files. Frames beyond seq are compacted in place.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	cut := 0
	for cut < len(l.live) && l.live[cut].Seq <= seq {
		cut++
	}
	if cut == 0 {
		return nil
	}
	keep := append([]Record(nil), l.live[cut:]...)
	if err := l.rewriteLocked(keep); err != nil {
		l.failed = fmt.Errorf("wal: checkpoint truncate: %w", err)
		return l.failed
	}
	l.st.Truncates++
	return nil
}

// Close flushes any pending appends and closes the log. Further appends
// fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	err := l.flushLocked()
	l.closed = true
	return err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.DurableBytes = l.durable
	return st
}

// Err returns the sticky write-failure error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// appendFrame encodes r onto b.
func appendFrame(b []byte, r Record) []byte {
	off := len(b)
	b = append(b,
		frameMagic, r.Op,
		byte(r.Src), byte(r.Src>>8), byte(r.Src>>16), byte(r.Src>>24),
		byte(r.Dst), byte(r.Dst>>8), byte(r.Dst>>16), byte(r.Dst>>24),
		byte(r.W), byte(r.W>>8), byte(r.W>>16), byte(r.W>>24),
		byte(r.Seq), byte(r.Seq>>8), byte(r.Seq>>16), byte(r.Seq>>24),
		byte(r.Seq>>32), byte(r.Seq>>40), byte(r.Seq>>48), byte(r.Seq>>56),
	)
	crc := crc32.Checksum(b[off:off+FrameSize-4], castagnoli)
	return append(b, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// decodeFrame decodes one frame at the start of b (len(b) >= FrameSize).
func decodeFrame(b []byte) (Record, bool) {
	if b[0] != frameMagic {
		return Record{}, false
	}
	if crc32.Checksum(b[:FrameSize-4], castagnoli) != u32(b[FrameSize-4:]) {
		return Record{}, false
	}
	r := Record{
		Op:  b[1],
		Src: u32(b[2:]),
		Dst: u32(b[6:]),
		W:   u32(b[10:]),
		Seq: uint64(u32(b[14:])) | uint64(u32(b[18:]))<<32,
	}
	if r.Op != OpAdd && r.Op != OpDel {
		return Record{}, false
	}
	return r, true
}

// DecodeFrames scans buf as a WAL byte stream and returns the longest
// valid frame prefix: frames are accepted while the magic byte, the
// CRC32C, the opcode, and sequence continuity (each frame's Seq is the
// previous plus one) all hold. consumed is the byte length of the
// accepted prefix. torn reports whether any nonzero byte follows it — a
// torn or corrupt tail, as opposed to page-alignment zero padding.
func DecodeFrames(buf []byte) (recs []Record, consumed int, torn bool) {
	off := 0
	var prev uint64
	for off+FrameSize <= len(buf) {
		r, ok := decodeFrame(buf[off : off+FrameSize])
		if !ok {
			break
		}
		if len(recs) > 0 && r.Seq != prev+1 {
			break
		}
		recs = append(recs, r)
		prev = r.Seq
		off += FrameSize
	}
	for _, b := range buf[off:] {
		if b != 0 {
			return recs, off, true
		}
	}
	return recs, off, false
}
