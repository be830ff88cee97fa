package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"multilogvc/internal/ckpt"
	"multilogvc/internal/metrics"
	"multilogvc/internal/mlog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// Fault-tolerance policies of a run, all optional and all outside the
// default path: superstep checkpoints (periodic, and at an interrupted or
// expired boundary), restore from one, and space reclamation under a disk
// quota.

func (r *run) ckptPrefix() string { return r.base + "." + r.prog.Name() }

// tagCheckpoint tags the IO that follows — snapshot reads, slot writes,
// restore replay — as checkpoint overhead, so every site attributes
// identically; the returned func restores the previous tag.
func (r *run) tagCheckpoint() (restore func()) {
	prevS, prevIv := r.cfg.Scope.SetStage(obsv.StageCheckpoint, -1)
	return func() { r.cfg.Scope.SetStage(prevS, prevIv) }
}

// loadCheckpoint returns the newest committed checkpoint, or nil when there
// is none (the run then starts from superstep 0). A checkpoint whose every
// slot is torn or CRC-invalid is an error the caller can distinguish via
// ckpt.ErrCorrupt.
func (r *run) loadCheckpoint() (*ckpt.State, error) {
	defer r.tagCheckpoint()()
	st, err := ckpt.Load(r.g.Device(), r.ckptPrefix())
	app, graph, n := r.prog.Name(), r.g.Name(), r.g.NumVertices()
	switch {
	case errors.Is(err, ckpt.ErrNoCheckpoint):
		return nil, nil
	case err != nil:
		return nil, err
	case st.App != app || st.Graph != graph || st.NumVertices != n:
		return nil, fmt.Errorf("core: checkpoint is for %s/%s (%d vertices), run is %s/%s (%d vertices)",
			st.App, st.Graph, st.NumVertices, app, graph, n)
	}
	return st, nil
}

// restore rehydrates every unit from a loaded checkpoint: the carry bitset,
// aux files, the current-generation message log, the edge log (replayed
// into the next generation, then swapped current), the predictor's history,
// and the report's completed supersteps. The value file was already
// created from the snapshot.
func (r *run) restore(rst *ckpt.State) error {
	defer r.tagCheckpoint()()
	r.carry.SetWords(rst.Carry)
	if r.aux != nil && rst.Aux != nil {
		if err := r.aux.RestoreAll(rst.Aux); err != nil {
			return err
		}
	}
	if len(rst.Msgs) != r.curLog.NumIntervals() {
		return fmt.Errorf("core: checkpoint has %d message-log intervals, graph has %d",
			len(rst.Msgs), r.curLog.NumIntervals())
	}
	var ivs []int32
	for iv, msgs := range rst.Msgs {
		ivs = ivs[:0]
		for range msgs {
			ivs = append(ivs, int32(iv))
		}
		if _, err := r.curLog.AppendRecs(ivs, msgs); err != nil {
			return err
		}
	}
	// The edge log is an adjacency cache: replay only when the optimizer
	// is still on; dropping it costs CSR reads, never correctness.
	if r.elog != nil && len(rst.Elog) > 0 {
		for _, ent := range rst.Elog {
			if err := r.elog.LogEdges(ent.V, ent.Nbrs, ent.Weights); err != nil {
				return err
			}
		}
		if err := r.elog.EndSuperstep(); err != nil {
			return err
		}
	}
	if r.pred != nil && rst.PredActive != nil {
		r.pred.RestoreHistory(rst.PredActive, rst.PredIneff)
	}

	r.loop.StartStep = rst.Step
	r.loop.CumProcessed = rst.CumProcessed
	r.ckptSeq = rst.Seq + 1
	r.rcl.noteCheckpoint(rst.Seq)
	report := r.loop.Report
	report.Supersteps = append(report.Supersteps, rst.Supersteps...)
	report.Resumed = true
	report.ResumeStep = rst.Step
	obsv.Live().Resumes.Add(1)
	return nil
}

// checkpoint snapshots the run state at the boundary before superstep step
// (the next one to execute) and commits it with ckpt.Save. All reads it
// issues (value pages, message-log pages, edge-log pages, aux pages) go
// through the device and are charged as checkpoint overhead by the caller.
// ss is the in-progress superstep to include in the snapshot's report
// history; nil (the boundary-stop path) snapshots completed supersteps only.
func (r *run) checkpoint(step int, ss *metrics.SuperstepStats) error {
	// The write targets exactly the slot the reclaimer calls stale.
	r.rcl.setCkptBusy(true)
	defer r.rcl.setCkptBusy(false)
	defer r.tagCheckpoint()()
	report := r.loop.Report
	st := &ckpt.State{
		App:          report.App,
		Graph:        report.Graph,
		Seq:          r.ckptSeq,
		Step:         step,
		NumVertices:  r.g.NumVertices(),
		CumProcessed: r.loop.CumProcessed,
		Carry:        r.carry.Words(),
	}
	var err error
	if st.Values, err = r.values.LoadAll(); err != nil {
		return err
	}
	st.Msgs = make([][]vc.Msg, r.curLog.NumIntervals())
	for iv := range st.Msgs {
		if st.Msgs[iv], err = r.curLog.ReadRecs(iv, make([]vc.Msg, 0, r.curLog.Count(iv))); err != nil {
			return err
		}
	}
	if r.elog != nil {
		if err := r.snapshotElog(st, ss); err != nil {
			return err
		}
	}
	if r.pred != nil {
		st.PredActive, st.PredIneff = r.pred.History()
	}
	if r.aux != nil {
		if st.Aux, err = r.aux.DumpAll(); err != nil {
			return err
		}
	}
	// Completed supersteps including the current one; its Checkpoint*
	// fields are zero in the snapshot (the cost is only known after Save).
	st.Supersteps = append([]metrics.SuperstepStats(nil), report.Supersteps...)
	if ss != nil {
		st.Supersteps = append(st.Supersteps, *ss)
	}
	return ckpt.Save(r.g.Device(), r.ckptPrefix(), st)
}

// snapshotElog copies the edge log's current generation into st. A corrupt
// edge-log page under the checkpointer heals instead of failing it: the
// log is redundant with CSR, so the generation is dropped and the snapshot
// goes without it.
func (r *run) snapshotElog(st *ckpt.State, ss *metrics.SuperstepStats) error {
	_, err := r.elog.Dump(func(v uint32, nbrs, weights []uint32) {
		ent := ckpt.ElogEntry{V: v, Nbrs: append([]uint32(nil), nbrs...)}
		if weights != nil {
			ent.Weights = append([]uint32(nil), weights...)
		}
		st.Elog = append(st.Elog, ent)
	})
	if err == nil || !errors.Is(err, ssd.ErrCorruptPage) {
		return err
	}
	st.Elog = nil
	if err := r.elog.InvalidateCurrent(); err != nil {
		return err
	}
	if ss != nil {
		ss.ElogHealed++
	}
	return nil
}

// boundary is the loop's hook before every superstep: a cancellation or an
// expired deadline stops the run here, where the state is consistent.
func (r *run) boundary(ctx context.Context, step int) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return r.stopAtBoundary(step, ErrDeadline)
	default:
		return r.stopAtBoundary(step, ErrInterrupted)
	}
}

// stopAtBoundary ends the run gracefully: it commits the boundary state —
// regardless of CheckpointEvery — and classifies the exit by cause, so the
// caller knows a resume will pick up here. An ephemeral run has nothing
// worth resuming: it returns at once and close sweeps its scratch.
func (r *run) stopAtBoundary(step int, cause error) error {
	if r.cfg.Ephemeral {
		return fmt.Errorf("%w at superstep %d", cause, step)
	}
	if err := r.checkpoint(step, nil); err != nil {
		return fmt.Errorf("core: boundary checkpoint at superstep %d: %w", step, err)
	}
	return fmt.Errorf("%w at superstep %d (checkpoint committed)", cause, step)
}

// periodicCheckpoint is the loop's hook after every superstep when
// CheckpointEvery is set: every K-th boundary commits a checkpoint. The
// snapshot's IO is charged to the device and folded into the superstep's
// stats, so checkpoint overhead shows up in per-step exports and report
// totals.
func (r *run) periodicCheckpoint(step int, ss *metrics.SuperstepStats) error {
	if (step+1)%r.cfg.CheckpointEvery != 0 {
		return nil
	}
	span := r.cfg.Trace.Begin("engine", "checkpoint")
	span.Arg("step", int64(step+1))
	delta, err := r.loop.Charge(ss, func() error { return r.checkpoint(step+1, ss) })
	if err != nil {
		return err
	}
	r.rcl.noteCheckpoint(r.ckptSeq)
	r.ckptSeq++
	ss.Checkpoints = 1
	ss.CheckpointPages = delta.PagesRead + delta.PagesWritten
	ss.CheckpointTime = delta.StorageTime()
	obsv.Live().Checkpoints.Add(1)
	span.Arg("pages", int64(ss.CheckpointPages))
	span.End()
	return nil
}

// reclaimState tracks what the run can safely give back under disk
// pressure: the consumed intervals of the message-log generation being
// drained (marked after each batch finishes) and the stale slot of the
// newest committed checkpoint. The engine updates it at batch and boundary
// transitions; the device calls reclaim from whichever goroutine's write
// hit the quota.
type reclaimState struct {
	mu      sync.Mutex
	dev     *ssd.Device
	prefix  string
	log     *mlog.Log
	newest  uint64
	hasCkpt bool
	// ckptBusy suppresses checkpoint GC while a checkpoint write is in
	// flight: the write targets exactly the slot the bookkeeping calls
	// stale, so a reclaim triggered from inside it (a quota hit on the
	// slot's own pages) would self-deadlock trying to remove the file the
	// writer holds locked.
	ckptBusy bool
}

func (r *reclaimState) setLog(l *mlog.Log) {
	r.mu.Lock()
	r.log = l
	r.mu.Unlock()
}

func (r *reclaimState) noteCheckpoint(seq uint64) {
	r.mu.Lock()
	r.newest, r.hasCkpt = seq, true
	r.mu.Unlock()
}

func (r *reclaimState) setCkptBusy(busy bool) {
	r.mu.Lock()
	r.ckptBusy = busy
	r.mu.Unlock()
}

// reclaim is the registered device hook. Best-effort: errors are dropped —
// a sweep that frees nothing leaves the retried reservation to fail
// classified as ssd.ErrNoSpace, which is the honest outcome.
func (r *reclaimState) reclaim() {
	r.mu.Lock()
	log, newest, has := r.log, r.newest, r.hasCkpt && !r.ckptBusy
	r.mu.Unlock()
	if log != nil {
		_ = log.ReclaimConsumed()
	}
	if has {
		_ = ckpt.GCStale(r.dev, r.prefix, newest)
	}
}
