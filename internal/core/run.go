package core

import (
	"context"
	"fmt"

	"multilogvc/internal/bitset"
	"multilogvc/internal/ckpt"
	"multilogvc/internal/csr"
	"multilogvc/internal/edgelog"
	"multilogvc/internal/metrics"
	"multilogvc/internal/mlog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/sortgroup"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// run is the state of one execution attempt: the program, the storage
// units of the multi-log layout, and the bookkeeping checkpoints and space
// reclamation need. Its Pending/Superstep methods are the engine's side of
// the shared superstep loop.
type run struct {
	*Engine
	loop *superstep.Loop
	prog vc.Program

	// base prefixes every scratch file, auxName the aux arrays; both carry
	// Config.RunTag so concurrent runs over one resident graph never collide.
	base, auxName string

	values          *csr.Values
	aux             *csr.Aux // nil unless prog is a vc.AuxUser
	curLog, nextLog *mlog.Log
	elog            *edgelog.EdgeLog   // nil with DisableEdgeLog
	pred            *edgelog.Predictor // nil with DisableEdgeLog
	elogBudget      int64
	sortOpts        sortgroup.Options
	// carry holds vertices that are live without needing a message
	// (processed last superstep and did not vote to halt); messages in
	// the current log activate the rest.
	carry *bitset.Set

	rcl        *reclaimState
	unregister func() // detaches rcl from the device
	ckptSeq    uint64

	step int           // superstep in progress
	muts []vc.Mutation // structural mutations it has requested so far

	workingSet     // the standing buffers, popped from idle at open
	waveSends  int // expected sends after which a wave's sends are drained

	ok bool // the run ended without error: its working set goes back to idle
}

// A wave buffers about an eighth of the message log's own buffer budget —
// small enough that buffering sends ahead of the log costs no measurable
// memory, and a function of the configuration alone. minWaveSends keeps a
// floor-budget log (one page per interval, the serving shape) from chopping
// a batch into hundred-vertex waves, each a drain of its own and each too
// small for superstep.ForEach to share among workers.
const (
	waveBudgetShare = 8
	minWaveSends    = 4096
)

// lanesOf returns the lane count of prog (1 for a plain program) and its
// lane view when it has one.
func lanesOf(prog vc.Program) (int, vc.LaneProgram) {
	lp, _ := prog.(vc.LaneProgram)
	if lp == nil {
		return 1, nil
	}
	return max(lp.Lanes(), 1), lp
}

// runOnce is one execution attempt: resume selects the starting point and
// rollbacks records how many rollback re-executions preceded this one.
func (e *Engine) runOnce(ctx context.Context, prog vc.Program, resume bool, rollbacks int) (*superstep.Result, error) {
	cfg := e.cfg
	// Lane-batched programs fan K point queries into one execution. Lanes
	// rule out checkpoint/resume: snapshots are single-lane.
	if lanes, _ := lanesOf(prog); lanes > 1 && (cfg.CheckpointEvery > 0 || resume) {
		return nil, fmt.Errorf("core: lane-batched program %q does not support checkpointing or resume", prog.Name())
	}
	if cfg.Ephemeral {
		if cfg.RunTag == "" {
			return nil, fmt.Errorf("core: Ephemeral requires RunTag (scratch cleanup sweeps the run's name prefix)")
		}
		if cfg.CheckpointEvery > 0 || resume {
			return nil, fmt.Errorf("core: Ephemeral is incompatible with checkpointing and resume")
		}
	}

	loop := superstep.Begin(ctx, cfg.Scope, "multilogvc", prog.Name(), e.g.Name())
	defer loop.End()
	loop.Report.Rollbacks = rollbacks
	loop.MaxSupersteps = cfg.MaxSupersteps
	loop.StopAfter = cfg.StopAfter
	loop.Cache = e.g.Device().Cache()
	loop.Trace = cfg.Trace

	r := &run{Engine: e, loop: loop, prog: prog, base: e.g.Name(), auxName: prog.Name()}
	if cfg.RunTag != "" {
		r.base += "." + cfg.RunTag
		r.auxName += "." + cfg.RunTag
	}
	defer r.close()
	if err := r.open(resume); err != nil {
		return nil, err
	}
	loop.Boundary = r.boundary
	if cfg.CheckpointEvery > 0 {
		loop.AfterStep = r.periodicCheckpoint
	}
	res, err := loop.Run(r)
	r.ok = err == nil
	return res, err
}

// open creates the run's storage units — from the newest checkpoint when
// resume is set and one exists, from the program's initial state otherwise.
func (r *run) open(resume bool) error {
	g, cfg, prog := r.g, r.cfg, r.prog
	dev, n, name := g.Device(), g.NumVertices(), r.base

	// Load the checkpoint before creating any run state, so every unit
	// below initializes straight from it.
	var rst *ckpt.State
	if resume {
		var err error
		if rst, err = r.loadCheckpoint(); err != nil {
			return err
		}
	}

	r.workingSet = popIdle()

	lanes, laneProg := lanesOf(prog)
	initLane := func(v uint32, lane int) uint32 {
		if laneProg != nil {
			return laneProg.InitValueLane(v, lane, n)
		}
		return prog.InitValue(v, n)
	}
	if rst != nil { // resume implies lanes == 1
		initLane = func(v uint32, _ int) uint32 { return rst.Values[v] }
	}
	var err error
	if r.values, err = csr.CreateValuesLanesFunc(dev, name+".values", n, lanes, initLane); err != nil {
		return err
	}
	r.loop.Values = r.values
	if auxUser, ok := prog.(vc.AuxUser); ok {
		if r.aux, err = csr.CreateAux(g, r.auxName, auxUser.AuxInit(n)); err != nil {
			return err
		}
	}

	// The memory budget is split as in Fig 4 of the paper.
	r.sortOpts = sortgroup.Options{SortBudget: IntervalBudget(cfg.MemoryBudget), NoFuse: cfg.DisableFusing}
	if cfg.SortBudget > 0 {
		r.sortOpts.SortBudget = cfg.SortBudget
	}
	r.elogBudget = cfg.MemoryBudget * elogPct / 100
	if r.logBufs == nil {
		r.logBufs = &mlog.Buffers{}
	}
	if r.curLog, err = mlog.NewWith(dev, name+".mlog.0", len(g.Intervals()), cfg.MemoryBudget*mlogPct/100, r.logBufs); err != nil {
		return err
	}
	r.curLog.SetTracer(cfg.Trace)
	r.nextLog = r.curLog.NewGeneration(name + ".mlog.1")
	if !cfg.DisableEdgeLog {
		if r.elog, err = edgelog.New(dev, name+".elog", g.HasWeights()); err != nil {
			return err
		}
		r.elog.SetTracer(cfg.Trace)
		r.pred = edgelog.NewPredictor(n, dev.PageSize(), cfg.UtilThreshold)
	}
	r.carry = superstep.InitialActive(prog.InitActive(n), n)
	r.sends = r.sends.Reuse(cfg.Workers, n)
	if len(r.ctxs) != cfg.Workers {
		r.ctxs = make([]engineCtx, cfg.Workers)
	}
	r.waveSends = max(int(r.nextLog.Budget()/mlog.RecordBytes/waveBudgetShare), minWaveSends)

	// Space governance: register what this run can give back when a write
	// hits the disk quota — consumed intervals of the previous-generation
	// message log and the stale checkpoint slot. The device runs these
	// hooks and retries the failing write once before surfacing ErrNoSpace.
	r.rcl = &reclaimState{dev: dev, prefix: r.ckptPrefix()}
	r.rcl.setLog(r.curLog)
	r.unregister = dev.AddReclaimer(r.rcl.reclaim)

	if rst != nil {
		return r.restore(rst)
	}
	return nil
}

// close runs on every exit of the attempt, success or not. The working set
// goes back to idle when the attempt ended without error and dies with it
// otherwise.
func (r *run) close() {
	if r.unregister != nil {
		r.unregister()
	}
	if r.ok {
		clear(r.auxBatches)
		r.vb.Forget()
		pushIdle(r.workingSet)
	}
	r.workingSet = workingSet{}
	// An ephemeral run leaves nothing behind: its scratch namespace
	// (values, message logs, edge log, spill runs) and any aux arrays.
	if r.cfg.Ephemeral {
		dev := r.g.Device()
		_, _ = dev.RemovePrefix(r.base + ".")
		_, _ = dev.RemovePrefix(fmt.Sprintf("%s.aux.%s.", r.g.Name(), r.auxName))
	}
}

// Pending reports whether another superstep has work: a carried-live
// vertex or an undelivered message.
func (r *run) Pending() bool { return r.carry.Any() || r.curLog.Total() > 0 }

// Superstep follows Algorithm 1: every (fused) interval's log is loaded,
// sorted and processed in turn, then the boundary work runs — structural
// mutations, the next-generation log flush, the generation swap.
func (r *run) Superstep(_ context.Context, step int, ss *metrics.SuperstepStats) error {
	r.step, r.muts = step, r.muts[:0]
	ivs := r.g.Intervals()
	ss.MsgSkew = intervalSkew(r.curLog, len(ivs))

	for ivStart := 0; ivStart < len(ivs); {
		batch, err := r.loadSort(ivStart, ss)
		if err != nil {
			return err
		}
		if err := r.drain(batch, ss); err != nil {
			return err
		}
		// The batch is fully drained: its intervals are never re-read
		// this generation, so the device may reclaim their log pages
		// under disk pressure.
		r.curLog.MarkConsumed(batch.FirstIv, batch.LastIv)
		ivStart = batch.LastIv + 1
	}
	if err := r.applyMutations(); err != nil {
		return err
	}
	return r.flushLogs(ss)
}

// loadSort loads the log of interval ivStart — fused with as many
// following intervals as fit the sort budget — sorted by destination.
func (r *run) loadSort(ivStart int, ss *metrics.SuperstepStats) (*sortgroup.Batch, error) {
	span := r.cfg.Trace.Begin("engine", "load+sort")
	before := r.cfg.Scope.Stats()
	batch, err := sortgroup.Load(r.curLog, r.g.Intervals(), ivStart, r.sortOpts)
	if err != nil {
		return nil, err
	}
	span.Arg("pages_read", int64(r.cfg.Scope.Stats().Sub(before).PagesRead))
	span.Arg("first_iv", int64(batch.FirstIv))
	span.Arg("last_iv", int64(batch.LastIv))
	span.Arg("records", int64(len(batch.Recs)))
	if batch.Spilled {
		span.Arg("spill_bytes", batch.SpillBytes())
		ss.Spills++
		ss.SpillBytes += uint64(batch.SpillBytes())
	}
	span.End()
	return batch, nil
}

// drain runs the vertex stage over a loaded batch. A spilled batch arrives
// in destination-aligned chunks, each within the sort budget; an in-memory
// batch is one chunk. The chunks tile the interval's vertex range, so every
// vertex — message-activated or carry-only — is processed exactly once.
func (r *run) drain(batch *sortgroup.Batch, ss *metrics.SuperstepStats) error {
	defer batch.Close()
	span := r.cfg.Trace.Begin("engine", "process-batch")
	span.Arg("first_iv", int64(batch.FirstIv))
	before := r.cfg.Scope.Stats()
	for more := true; more; {
		if err := r.processBatch(batch, ss); err != nil {
			return err
		}
		var err error
		if more, err = batch.NextChunk(); err != nil {
			return err
		}
	}
	delta := r.cfg.Scope.Stats().Sub(before)
	span.Arg("pages_read", int64(delta.PagesRead))
	span.Arg("pages_written", int64(delta.PagesWritten))
	span.End()
	return nil
}

// applyMutations applies the superstep's structural mutations at its
// boundary (§V-E): they become visible at the start of the next superstep.
func (r *run) applyMutations() error {
	if len(r.muts) == 0 {
		return nil
	}
	if r.aux != nil {
		// Merging rewrites the in-CSR the aux layout mirrors; the aux
		// file would go stale. The paper's aux-state programs (CDLP,
		// GC) do not mutate structure either.
		return fmt.Errorf("core: structural mutation is not supported for programs with per-in-edge aux state")
	}
	if r.cfg.CheckpointEvery > 0 {
		// Checkpoints snapshot run state, not the CSR itself; a
		// mutated graph would not match the snapshot on resume.
		return fmt.Errorf("core: structural mutation is not supported with checkpointing enabled")
	}
	// One batch per boundary: a single WAL group commit and a single
	// published epoch cover the whole superstep's mutations.
	ms := make([]csr.Mutation, len(r.muts))
	for i, m := range r.muts {
		ms[i] = csr.Mutation{Del: !m.Add, Src: m.Src, Dst: m.Dst, Weight: m.Weight}
	}
	return r.g.ApplyMutations(ms, 0)
}

// flushLogs ends the superstep on the storage side: the next-generation
// message log and the edge log reach the device, and the generations swap.
func (r *run) flushLogs(ss *metrics.SuperstepStats) error {
	span := r.cfg.Trace.Begin("engine", "flush-logs")
	// The boundary flush drains message-log pages the vertex stage
	// produced; it belongs to the same traffic class as the in-batch
	// Send evictions.
	prevS, prevIv := r.cfg.Scope.SetStage(obsv.StageVertex, -1)
	err := r.nextLog.FlushAll()
	r.cfg.Scope.SetStage(prevS, prevIv)
	if err != nil {
		return err
	}
	if r.elog != nil {
		st := r.pred.EndSuperstep()
		ss.InefficientPages = st.InefficientPages
		ss.PredictedIneff = st.PredictedIneff
		ss.CorrectPredicted = st.Correct
		ss.UtilPagesTouched = st.PagesTouched
		prevS, prevIv := r.cfg.Scope.SetStage(obsv.StageRelog, -1)
		err := r.elog.EndSuperstep()
		r.cfg.Scope.SetStage(prevS, prevIv)
		if err != nil {
			return err
		}
		ss.EdgeLogPagesWrite += uint64(r.elog.Pages())
	}
	r.curLog, r.nextLog = r.nextLog, r.curLog
	r.rcl.setLog(r.curLog)
	if err := r.nextLog.ResetAll(); err != nil {
		return err
	}
	span.End()
	return nil
}

// intervalSkew measures how unevenly the superstep's incoming messages
// spread over the vertex intervals: the busiest interval's log volume over
// the mean across all intervals. 1.0 is perfectly balanced; 0 means no
// messages flowed (a carry-only superstep).
func intervalSkew(log *mlog.Log, numIntervals int) float64 {
	var maxC, sumC uint64
	for iv := 0; iv < numIntervals; iv++ {
		c := log.Count(iv)
		sumC += c
		maxC = max(maxC, c)
	}
	if sumC == 0 {
		return 0
	}
	return float64(maxC) * float64(numIntervals) / float64(sumC)
}
