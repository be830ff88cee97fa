// WAL shipping: the primitives replication is built from. The log's
// durable frame window (everything appended but not yet truncated by a
// merge checkpoint) is the shippable unit of truth — a primary serves
// verbatim CRC-framed batches out of it with Frames/EncodeFrames, and a
// follower decodes the stream with a TailDecoder and re-logs it at the
// original sequence numbers with AppendAt, so its own replay, torn-tail
// truncation, and merge checkpoints work unchanged.
package wal

import (
	"errors"
	"fmt"
)

// ErrSeqGap reports a sequence discontinuity in a shipped stream: the
// requested frames were already truncated by a merge checkpoint on the
// primary, or a batch arrived that does not extend the follower's log
// contiguously. A follower hitting this cannot catch up incrementally
// and must be re-seeded from a fresh copy of the primary's state.
var ErrSeqGap = errors.New("wal: sequence gap")

// ErrBadShipFrame reports an undecodable frame in the middle of a
// shipped stream. Unlike a torn tail on disk (expected after a crash,
// silently truncated), mid-stream corruption on the wire is never
// acceptable: the transport mangled acknowledged data.
var ErrBadShipFrame = errors.New("wal: corrupt shipped frame")

// Frames returns up to max durable records starting at sequence number
// from, plus the log's highest durable sequence number (so the caller
// can compute its lag even when the batch is empty). Requesting frames
// below the durable window — they were folded into the CSR and
// truncated — fails with ErrSeqGap naming the lowest shippable seq.
// max <= 0 means no limit.
func (l *Log) Frames(from uint64, max int) (recs []Record, lastSeq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return nil, 0, l.failed
	}
	lastSeq = l.st.LastSeq
	if from == 0 {
		from = 1
	}
	lowest := lastSeq + 1 // empty window: only the next future seq is shippable
	if len(l.live) > 0 {
		lowest = l.live[0].Seq
	}
	if from < lowest {
		return nil, lastSeq, fmt.Errorf("%w: frames from %d requested but log begins at %d (truncated by merge checkpoint)", ErrSeqGap, from, lowest)
	}
	if len(l.live) == 0 || from > l.live[len(l.live)-1].Seq {
		return nil, lastSeq, nil
	}
	// live is seq-contiguous (append order, truncation keeps a suffix).
	i := int(from - l.live[0].Seq)
	n := len(l.live) - i
	if max > 0 && n > max {
		n = max
	}
	recs = append(recs, l.live[i:i+n]...)
	return recs, lastSeq, nil
}

// EncodeFrames encodes records into the verbatim on-device frame format
// (magic, payload, CRC32C) — the wire format of a shipped batch.
func EncodeFrames(recs []Record) []byte {
	b := make([]byte, 0, len(recs)*FrameSize)
	for _, r := range recs {
		b = appendFrame(b, r)
	}
	return b
}

// AppendAt writes records that already carry sequence numbers — shipped
// from a primary, or numbered by the ingest plane — and blocks until they
// are durable, under the same group-commit and sticky-failure rules as
// Append. The batch must extend the log contiguously: recs[0].Seq == last
// assigned seq + 1 and each subsequent record increments by one, else
// ErrSeqGap and nothing is logged.
func (l *Log) AppendAt(recs []Record) error { return l.append(recs, false) }

// SetNextSeq raises the next sequence number the log will assign (or
// accept via AppendAt) to seq+1, if it is not already past it. Callers
// use it after replay to floor the stream at a merge checkpoint: frames
// 1..FoldedSeq were truncated, so a restarted log must not re-issue
// their numbers — fatal for replication, where seqs are identity.
func (l *Log) SetNextSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.nextSeq {
		l.nextSeq = seq
	}
	if seq > l.st.LastSeq {
		// The folded prefix is durable (it lives in the CSR files now);
		// LastSeq keeps meaning "highest durable seq" across the floor.
		l.st.LastSeq = seq
	}
}

// TailDecoder incrementally decodes a shipped WAL frame stream that
// arrives in arbitrary chunks (network reads, test-injected disconnect
// points). Complete frames are validated (magic, CRC32C, opcode) and
// checked for sequence continuity; a trailing partial frame stays
// buffered until the next Feed. A disconnect mid-frame therefore always
// yields a clean prefix: every record handed out is valid and
// contiguous, and the cut-off bytes are discarded by Reset.
type TailDecoder struct {
	buf  []byte
	next uint64 // expected seq of the next frame; 0 accepts any start
}

// NewTailDecoder returns a decoder expecting the stream to start at
// sequence number next (0 accepts any starting seq).
func NewTailDecoder(next uint64) *TailDecoder {
	return &TailDecoder{next: next}
}

// Feed appends chunk to the internal buffer and returns every complete,
// valid, contiguous frame now available. An undecodable frame fails with
// ErrBadShipFrame, a sequence discontinuity with ErrSeqGap; in both
// cases the records already returned by earlier Feeds remain the valid
// prefix and the decoder refuses further input until Reset.
func (d *TailDecoder) Feed(chunk []byte) ([]Record, error) {
	d.buf = append(d.buf, chunk...)
	var recs []Record
	off := 0
	for off+FrameSize <= len(d.buf) {
		r, ok := decodeFrame(d.buf[off : off+FrameSize])
		if !ok {
			d.buf = d.buf[:0]
			return recs, fmt.Errorf("%w at stream offset %d", ErrBadShipFrame, off)
		}
		if d.next != 0 && r.Seq != d.next {
			d.buf = d.buf[:0]
			return recs, fmt.Errorf("%w: shipped frame has seq %d, expected %d", ErrSeqGap, r.Seq, d.next)
		}
		recs = append(recs, r)
		d.next = r.Seq + 1
		off += FrameSize
	}
	d.buf = append(d.buf[:0], d.buf[off:]...)
	return recs, nil
}

// Pending reports buffered bytes of an incomplete trailing frame.
func (d *TailDecoder) Pending() int { return len(d.buf) }

// Next returns the sequence number the decoder expects next.
func (d *TailDecoder) Next() uint64 { return d.next }

// Reset discards any buffered partial frame and re-arms the decoder to
// expect sequence number next — the reconnect path: a follower restarts
// the stream at its applied seq + 1 and must not splice a stale partial
// frame from the dead connection onto the new one.
func (d *TailDecoder) Reset(next uint64) {
	d.buf = d.buf[:0]
	d.next = next
}
