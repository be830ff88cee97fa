package csr

// Replication entry points. A primary ships its WAL's durable frame
// window verbatim (ReplicationFrames); a follower applies the shipped
// records at their ORIGINAL sequence numbers (ApplyReplicated), re-
// logging them in its own WAL via AppendAt, so everything the ingest
// plane already guarantees — replay, torn-tail truncation, crash-atomic
// merges, epoch snapshot isolation — works identically on a replica.
// Sequence numbers are identity: a seq names the same mutation on every
// node, and AppliedSeq is the single progress cursor both catch-up and
// lag reporting are driven by.

import (
	"errors"

	"multilogvc/internal/wal"
)

// ErrNotDurable is returned by the replication entry points on a graph
// without a write-ahead log: there is no durable frame stream to ship.
var ErrNotDurable = errors.New("csr: graph has no write-ahead log")

// AppliedSeq returns the highest mutation sequence number applied to
// this graph — folded into the CSR files or published in the delta
// overlay. On a follower this is the replication cursor: the next frame
// it needs is AppliedSeq()+1.
func (g *Graph) AppliedSeq() uint64 {
	if g.ing == nil {
		return 0
	}
	// epoch is floored at Meta.FoldedSeq on open and only ever advances,
	// so it covers both merged and overlay history.
	return g.ing.epoch.Load()
}

// ReplicationFrames returns up to max durable WAL records starting at
// sequence number from, plus the highest durable seq (the follower's lag
// reference). Frames already folded and truncated by a merge checkpoint
// yield wal.ErrSeqGap — the follower is too far behind to catch up
// incrementally. ErrNotDurable on a graph without a WAL.
func (g *Graph) ReplicationFrames(from uint64, max int) ([]wal.Record, uint64, error) {
	ing := g.ing
	if ing == nil || ing.log == nil {
		return nil, 0, ErrNotDurable
	}
	return ing.log.Frames(from, max)
}

// ApplyReplicated applies records shipped from a primary at their
// original sequence numbers: duplicates (seq <= AppliedSeq, a reconnect
// overlap) are skipped, the remainder must extend the applied stream
// contiguously (else wal.ErrSeqGap), is made durable in this graph's own
// WAL (durable mode), inserted into the delta overlay, and published.
// Crossing mergeThreshold triggers the same crash-atomic merge as local
// ingest — which checkpoints the follower's WAL and persists FoldedSeq,
// so a follower crash never rewinds the cursor. Returns how many records
// were newly applied.
func (g *Graph) ApplyReplicated(recs []wal.Record, mergeThreshold int) (int, error) {
	return g.apply(recs, false, mergeThreshold)
}
