// Package sortgroup implements the sort-and-group unit of §V-B: it loads
// the update log of a vertex interval from the device, fuses the logs of
// consecutive intervals while they fit the sort budget (§V-A2), sorts the
// records in memory by destination vertex, and serves per-vertex message
// groups to the engine. The batch's log pages are read into one buffer and
// sorted from there (extsort.SortEncoded): the sort decodes each record
// straight into its sorted slot. The sort is stable, and a log keeps its
// records in append order, so the messages of one destination are delivered
// in the order they were sent — across fused intervals and on the spill path
// too, whose runs are cut in log order and merged stably.
//
// The paper sizes intervals so one interval's worst-case log fits the sort
// budget, but at runtime a log can exceed that build-time bound (random
// walk sends multiple walkers per edge; structural updates grow in-degrees
// after intervals are fixed). Rather than over-allocating, an oversized
// interval falls back to a chunked external sort-group built on
// internal/extsort's k-way merge: the log is cut into budget-sized sorted
// runs on the device and served back as destination-aligned chunks, each
// within the budget. Results are identical to the in-memory path — every
// record is delivered to its destination exactly once.
package sortgroup

import (
	"fmt"

	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/mlog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// Batch is the sorted, grouped update set of one or more fused intervals.
// A spilled batch (Spilled true) serves one budget-sized chunk at a time:
// Recs holds the current chunk, NextChunk advances, and Close releases the
// on-device run files.
//
// Recs is a buffer borrowed from the log: it is the batch's alone from Load
// until Close, which hands it back for a later Load to fill. Batches that are
// open together therefore never share records, and nothing may read Recs
// after Close.
type Batch struct {
	// FirstIv and LastIv delimit the fused interval range [FirstIv, LastIv].
	FirstIv, LastIv int
	// Lo and Hi delimit the vertex range [Lo, Hi) covered by the current
	// chunk (the whole fused range for in-memory batches).
	Lo, Hi uint32
	// Recs are the updates sorted by destination — the current chunk of a
	// spilled batch, or everything for an in-memory one.
	Recs []vc.Msg
	// Spilled reports that the interval's log exceeded the sort budget and
	// is being served through the external sort-group.
	Spilled bool

	log   *mlog.Log // where Recs goes back to; nil once closed
	spill *spillState
}

// spillState is the external-sort cursor of a spilled batch.
type spillState struct {
	runs       *extsort.Runs
	m          *extsort.Merger
	sc         *ssd.IOScope // for tagging merge reads as StageSpill
	budgetRecs int
	next       vc.Msg // lookahead across the chunk boundary
	have       bool
	ivHi       uint32 // owning interval's Hi: the last chunk extends to it
	nextLo     uint32 // vertex range low bound of the next chunk
	bytes      int64  // run bytes written to the device
}

// Options tunes Load.
type Options struct {
	// SortBudget bounds the in-memory record volume in bytes: logs fuse
	// while they fit under it, and a single interval's log exceeding it is
	// spilled through the external sort-group. <= 0 means unbounded (fuse
	// everything, never spill).
	SortBudget int64
	// NoFuse disables fusing of non-empty logs (the §V-A2 ablation)
	// without shrinking the budget — an oversized interval still spills
	// rather than over-allocating. Consecutive empty logs still fuse:
	// they carry no sort work, and batch boundaries between them would
	// only change async forward-delivery cutoffs, not save memory.
	NoFuse bool
}

// Load loads the log of interval startIv and keeps fusing the following
// intervals' logs while the estimated total record volume stays within the
// sort budget (always at least one interval). Records are sorted by
// destination. The per-interval record counters provide the first-order
// size estimate, as in the paper. When startIv's log alone exceeds the
// budget, the batch is served through the spill path (see Batch). A record
// addressed outside the batch's vertices [Lo, Hi) — logged to the wrong
// interval — is an error.
func Load(log *mlog.Log, ivs []csr.Interval, startIv int, opts Options) (*Batch, error) {
	budget := opts.SortBudget
	total := int64(log.Count(startIv)) * mlog.RecordBytes
	if budget > 0 && total > budget {
		return loadSpilled(log, ivs[startIv], startIv, budget)
	}
	last := startIv
	for last+1 < len(ivs) {
		next := int64(log.Count(last+1)) * mlog.RecordBytes
		if opts.NoFuse {
			if total+next > 0 {
				break // only empty logs fuse under the ablation
			}
		} else if budget > 0 && total+next > budget {
			break
		}
		total += next
		last++
	}

	b := &Batch{
		FirstIv: startIv,
		LastIv:  last,
		Lo:      ivs[startIv].Lo,
		Hi:      ivs[last].Hi,
		Recs:    log.GetRecs(int(total / mlog.RecordBytes)),
		log:     log,
	}
	pages := log.GetPageBuf()
	defer func() { log.PutPageBuf(pages) }()
	sc := log.Device().Scope()
	for iv := startIv; iv <= last; iv++ {
		// Tag per fused interval so interval-level IO skew attributes log
		// read-back to the interval that produced it.
		prevS, prevIv := sc.SetStage(obsv.StageSortGroup, iv)
		var err error
		pages, err = log.ReadPages(iv, pages)
		sc.SetStage(prevS, prevIv)
		if err != nil {
			b.Close()
			return nil, err
		}
	}
	var err error
	if b.Recs, err = sortPages(b.Recs, pages, log.PageSize(), b.Lo, b.Hi); err != nil {
		b.Close()
		return nil, fmt.Errorf("sortgroup: intervals %d..%d: %w", startIv, last, err)
	}
	return b, nil
}

// sortPages decodes the records of pages — whole sealed log pages of pageSize
// bytes — into recs, sorted stably by destination, each of which must lie in
// [lo, hi). Every page header is checked first; pages is the sort's scratch,
// so what it held is gone afterwards.
func sortPages(recs []vc.Msg, pages []byte, pageSize int, lo, hi uint32) ([]vc.Msg, error) {
	if pageSize <= 0 || len(pages)%pageSize != 0 {
		return recs[:0], fmt.Errorf("%d bytes of log pages is no whole number of %d-byte pages", len(pages), pageSize)
	}
	for p := pages; len(p) > 0; p = p[pageSize:] {
		if _, err := mlog.PageRecords(p[:pageSize]); err != nil {
			return recs[:0], err
		}
	}
	return extsort.SortEncoded(recs, pages, pageSize, pageRecords, lo, hi)
}

// pageRecords returns the record bytes of a page sortPages has checked.
func pageRecords(page []byte) []byte {
	enc, _ := mlog.PageRecords(page)
	return enc
}

// loadSpilled externally sorts interval ivIdx's oversized log into
// budget-sized runs and primes the first chunk. No records are combined
// here: the spilled batch yields every record, as the in-memory path does,
// so results are identical.
func loadSpilled(log *mlog.Log, iv csr.Interval, ivIdx int, budget int64) (*Batch, error) {
	budgetRecs := int(budget / mlog.RecordBytes)
	if budgetRecs < 1 {
		budgetRecs = 1
	}
	sc := log.Device().Scope()
	runs := extsort.NewRuns(log.Device(), fmt.Sprintf("%s.%d.spill", log.Prefix(), ivIdx), nil)
	buf := log.GetRecs(budgetRecs)
	var flushErr error
	// Log read-back is sort+group work on this interval; the run-file
	// writes it triggers are spill traffic. The tag flips around each
	// flush so the two phases stay separable in the per-stage breakdown.
	prevS, prevIv := sc.SetStage(obsv.StageSortGroup, ivIdx)
	err := log.Read(ivIdx, func(dst, src, data uint32) {
		if flushErr != nil {
			return
		}
		buf = append(buf, vc.Msg{Dst: dst, Src: src, Data: data})
		if len(buf) >= budgetRecs {
			sc.SetStage(obsv.StageSpill, ivIdx)
			flushErr = runs.Flush(buf)
			sc.SetStage(obsv.StageSortGroup, ivIdx)
			buf = buf[:0]
		}
	})
	if err == nil {
		sc.SetStage(obsv.StageSpill, ivIdx)
		if err = flushErr; err == nil {
			err = runs.Flush(buf)
		}
	}
	sc.SetStage(prevS, prevIv)
	log.PutRecs(buf) // the first chunk takes it straight back
	if err != nil {
		runs.Remove()
		return nil, err
	}

	b := &Batch{
		FirstIv: ivIdx, LastIv: ivIdx,
		Lo: iv.Lo, Hi: iv.Hi,
		Recs:    log.GetRecs(budgetRecs),
		Spilled: true,
		log:     log,
		spill: &spillState{
			runs: runs, sc: sc, budgetRecs: budgetRecs,
			ivHi: iv.Hi, nextLo: iv.Lo,
			bytes: runs.BytesWritten(),
		},
	}
	prevS, prevIv = sc.SetStage(obsv.StageSpill, ivIdx)
	b.spill.m = runs.Merge()
	r, ok, err := b.spill.m.Next()
	sc.SetStage(prevS, prevIv)
	if err != nil {
		b.Close()
		return nil, err
	}
	b.spill.next, b.spill.have = r, ok
	if err := b.fillChunk(); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// fillChunk replaces Recs with the next destination-aligned chunk. Chunks
// grow to the record budget and then extend to the current destination's
// last record, so no vertex's messages straddle two chunks (one very hot
// destination may exceed the budget — correctness over strictness). The
// chunk's [Lo, Hi) partitions the interval: the engine processes each
// carry-only vertex exactly once, in the chunk covering its ID.
func (b *Batch) fillChunk() error {
	s := b.spill
	// Merge reads pull run pages back from the device: spill traffic,
	// attributed to the owning interval.
	prevS, prevIv := s.sc.SetStage(obsv.StageSpill, b.FirstIv)
	defer s.sc.SetStage(prevS, prevIv)
	b.Recs = b.Recs[:0]
	b.Lo = s.nextLo
	b.Hi = s.ivHi
	if !s.have {
		return nil
	}
	for {
		b.Recs = append(b.Recs, s.next)
		r, ok, err := s.m.Next()
		if err != nil {
			return err
		}
		if !ok {
			s.have = false
			return nil
		}
		prev := s.next
		s.next = r
		if len(b.Recs) >= s.budgetRecs && r.Dst != prev.Dst {
			b.Hi = prev.Dst + 1
			s.nextLo = prev.Dst + 1
			return nil
		}
	}
}

// NextChunk advances a spilled batch to its next chunk, reporting whether
// one was produced. In-memory batches (and exhausted spills) return false.
func (b *Batch) NextChunk() (bool, error) {
	if b.spill == nil || !b.spill.have {
		return false, nil
	}
	if err := b.fillChunk(); err != nil {
		return false, err
	}
	return true, nil
}

// SpillBytes returns the record bytes externally sorted through the device
// for this batch (0 for in-memory batches).
func (b *Batch) SpillBytes() int64 {
	if b.spill == nil {
		return 0
	}
	return b.spill.bytes
}

// Close hands Recs back to the log and, for a spilled batch, releases the
// merge cursor and deletes the on-device run files. Safe to call more than
// once.
func (b *Batch) Close() {
	if b.log != nil {
		b.log.PutRecs(b.Recs)
		b.Recs, b.log = nil, nil
	}
	if b.spill != nil {
		b.spill.m.Close()
		b.spill = nil
	}
}

// Grouper walks a batch's records one destination at a time.
type Grouper struct {
	batch    *Batch
	pos      int
	combiner vc.Combiner
}

// NewGrouper iterates the batch's messages grouped by destination.
// combiner may be nil; the engine does not group through a Grouper, and
// bench/'s probe passes nil.
func NewGrouper(b *Batch, combiner vc.Combiner) *Grouper {
	return &Grouper{batch: b, combiner: combiner}
}

// Next returns the next destination and its messages, or ok=false when the
// batch is exhausted. Destinations arrive in ascending order. msgs is the
// destination's run of the batch's records, read in place; a combiner
// (the paper's optional combine path, applied to all updates for a target
// before its processing function runs) folds the run into its first
// record and msgs is that record alone.
func (g *Grouper) Next() (dst uint32, msgs []vc.Msg, ok bool) {
	recs := g.batch.Recs
	if g.pos >= len(recs) {
		return 0, nil, false
	}
	start := g.pos
	dst = recs[start].Dst
	for g.pos < len(recs) && recs[g.pos].Dst == dst {
		g.pos++
	}
	msgs = recs[start:g.pos]
	if g.combiner != nil && len(msgs) > 1 {
		acc := msgs[0].Data
		for _, m := range msgs[1:] {
			acc = g.combiner.Combine(acc, m.Data)
		}
		msgs[0].Data = acc
		msgs = msgs[:1]
	}
	return dst, msgs, true
}
