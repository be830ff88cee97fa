// Package core implements the MultiLogVC engine: the paper's primary
// contribution. It runs vc.Programs out-of-core over an interval-
// partitioned CSR graph (internal/csr), exchanging messages through the
// multi-log update unit (internal/mlog), sorting and grouping them with
// interval fusing (internal/sortgroup), and reducing adjacency read
// amplification with the edge-log optimizer (internal/edgelog).
//
// One superstep follows Algorithm 1 of the paper:
//
//	for each (fused) vertex interval:
//	    load its update log, sort by destination, extract active vertices
//	    load the active vertices' values, adjacency (CSR pages or edge
//	    log), and aux state
//	    process the active vertices in waves; after each wave its sends are
//	    appended, in vertex order, to the next-generation logs
//	    log out-edges of predicted-active vertices on inefficient pages
//	flush next-generation logs; swap generations
package core

import (
	"context"
	"errors"
	"fmt"

	"multilogvc/internal/csr"
	"multilogvc/internal/edgelog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// ErrCorruptData is returned when the engine hits corrupt vital data
// (message-log, value, CSR, or aux pages) it cannot recover from: either
// checkpointing is off, or rollback attempts were exhausted. Redundant
// data (edge-log pages) never surfaces this — it is healed from CSR.
var ErrCorruptData = errors.New("core: corrupt data beyond recovery")

// ErrInterrupted is returned when Config.Interrupt fires. The engine
// commits a checkpoint at the superstep boundary before returning, so an
// interrupted run is always resumable with Config.Resume.
var ErrInterrupted = errors.New("core: run interrupted; checkpoint committed")

// ErrDeadline is returned when the run context passed to RunCtx expires.
// A deadline observed at a superstep boundary commits a checkpoint first
// (the same graceful path as ErrInterrupted); one observed mid-superstep
// by the device retry layer surfaces without one, but the newest periodic
// checkpoint (if any) remains valid for Resume.
var ErrDeadline = errors.New("core: run deadline exceeded")

// ErrPanic is returned when a panic escapes the engine — a vertex
// worker's Process call (contained by the shared worker pool) or any stage
// on the run goroutine. Deferred cleanup (ephemeral scratch sweep,
// run-context reset) runs during unwinding, so nothing is leaked.
var ErrPanic = superstep.ErrPanic

// maxRollbacks bounds how many times one Run re-executes from the newest
// checkpoint after hitting corrupt vital data. Transiently-planted
// corruption (an injected flip on data that is rewritten, like value or
// mlog pages) clears on the first rollback; corruption that survives
// rollback (a damaged CSR page) re-fails each attempt and surfaces as
// ErrCorruptData after the budget.
const maxRollbacks = 3

// Config tunes the engine. The memory budget is split exactly as Fig 4 of
// the paper: SortPct (X%) for the sort-and-group unit, MLogPct (A%) for
// the multi-log buffers, ELogPct (B%) for the edge-log buffer.
type Config struct {
	// MemoryBudget in bytes; defaults to 64 MiB.
	MemoryBudget int64
	// SortPct defaults to 75 (the paper's X%).
	SortPct int
	// MLogPct defaults to 5 (the paper's A%).
	MLogPct int
	// ELogPct defaults to 5 (the paper's B%).
	ELogPct int
	// MaxSupersteps defaults to 15, the paper's evaluation cap.
	MaxSupersteps int
	// Workers is the vertex-processing parallelism; defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// DisableEdgeLog turns the edge-log optimizer off (ablation).
	DisableEdgeLog bool
	// DisableCombiner ignores programs' Combiner even when present
	// (ablation).
	DisableCombiner bool
	// DisableFusing processes every vertex interval's log separately
	// instead of fusing small consecutive logs into one sort batch
	// (ablation of §V-A2).
	DisableFusing bool
	// Async selects the asynchronous computation model (§V-F): an update
	// sent to a vertex interval that has not been processed yet in the
	// current superstep is delivered within this superstep; updates to
	// already-processed intervals arrive next superstep. Fixpoint
	// algorithms (BFS, SSSP, WCC, PageRank) converge in fewer supersteps;
	// phase-structured algorithms (MIS) require the synchronous model.
	Async bool
	// UtilThreshold is the inefficient-page utilization threshold;
	// defaults to 0.10.
	UtilThreshold float64
	// StopAfter, when non-nil, is consulted after every superstep with
	// the cumulative number of vertex activations; returning true ends
	// the run (used by the BFS traversal-fraction experiments).
	StopAfter func(superstep int, cumProcessed uint64) bool
	// Trace, when non-nil, receives begin/end spans for every superstep
	// and per-batch stage (load+sort, value/adjacency loads, vertex
	// processing, edge-log relog, flushes). A nil Trace costs one pointer
	// test per stage.
	Trace *obsv.Trace
	// Cache is the buffer pool attached to the graph's device, when one
	// is (nil = uncached, the paper-faithful default). The device serves
	// cached reads on its own; the engine uses this handle for
	// per-superstep counter deltas and live gauges.
	Cache *pagecache.Cache
	// Prefetcher is ignored: an inert shell kept only because bench/
	// still sets it (ROADMAP item 11 deletes it).
	Prefetcher *pagecache.Prefetcher
	// CheckpointEvery commits a checkpoint to the device every K superstep
	// boundaries (see internal/ckpt). 0 disables checkpointing.
	// Checkpoint IO is charged to the device like any other IO and
	// reported per superstep (SuperstepStats.Checkpoint*).
	CheckpointEvery int
	// Resume restarts from the latest valid checkpoint on the device
	// instead of superstep 0. With no checkpoint present the run starts
	// fresh; a checkpoint whose every slot is torn or corrupt is an error
	// (ckpt.ErrCorrupt).
	Resume bool
	// Interrupt, when non-nil, requests graceful shutdown: at the next
	// superstep boundary after the channel closes (or receives), the
	// engine commits a checkpoint — even when CheckpointEvery is 0 — and
	// returns ErrInterrupted, so the run can be finished later with
	// Resume.
	Interrupt <-chan struct{}
	// SortBudget overrides the sort-and-group budget in bytes (0 derives
	// it from MemoryBudget×SortPct, the paper's split). An interval log
	// exceeding the budget no longer over-allocates: it spills through
	// sortgroup's chunked external sort-group, trading extra device IO for
	// a hard memory bound, with results identical to the in-memory path.
	SortBudget int64
	// RunTag namespaces the run's scratch files (values, message logs,
	// edge log, spill runs, checkpoints) as "<graph>.<RunTag>.*" instead
	// of "<graph>.*", so concurrent runs over one resident graph never
	// collide. Empty keeps the historical names.
	RunTag string
	// Ephemeral marks a transient query run (the serving daemon's mode):
	// an interrupt or deadline at a superstep boundary returns without
	// committing a checkpoint, and every scratch file is removed when the
	// run returns, success or not. Requires RunTag (the cleanup sweep is
	// prefix-based) and is incompatible with CheckpointEvery and Resume.
	Ephemeral bool
	// Scope, when non-nil, attributes the run's device IO to a per-run
	// ssd.IOScope: stage tags, the retry-layer run context, and the
	// stats/interval counters the engine reads per superstep all resolve
	// against the scope instead of the device-global slots. Required for
	// correct attribution when several runs share one device; checkpoint
	// slot IO (ckpt files are not scoped) still lands device-global.
	Scope *ssd.IOScope
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 64 << 20
	}
	if c.SortPct <= 0 {
		c.SortPct = 75
	}
	if c.MLogPct <= 0 {
		c.MLogPct = 5
	}
	if c.ELogPct <= 0 {
		c.ELogPct = 5
	}
	c.MaxSupersteps, c.Workers = superstep.Defaults(c.MaxSupersteps, c.Workers)
	if c.UtilThreshold <= 0 {
		c.UtilThreshold = edgelog.DefaultThreshold
	}
	return c
}

// Engine runs vertex-centric programs with the MultiLogVC architecture.
type Engine struct {
	g   *csr.Graph
	cfg Config
	// io is where the run's ambient stage tag, stats and interval
	// counters live: the IOScope when configured, else the device.
	io superstep.IO
}

// New creates an engine over an opened CSR graph. With Config.Scope set,
// the engine works through a scoped view of the graph so all its CSR and
// scratch IO is attributed to the scope.
func New(g *csr.Graph, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{g: g.View(cfg.Scope), cfg: cfg, io: g.Device()}
	if cfg.Scope != nil {
		e.io = cfg.Scope
	}
	return e
}

// Run executes prog to convergence or the superstep cap. When the run
// fails on a corrupt page and checkpointing is armed, Run rolls back: it
// re-executes from the newest valid checkpoint (or from scratch when none
// committed yet), up to maxRollbacks times. Corruption that persists
// through rollback — or strikes with checkpointing off — surfaces as
// ErrCorruptData wrapping the page-level failure.
func (e *Engine) Run(prog vc.Program) (*superstep.Result, error) {
	return e.RunCtx(context.Background(), prog)
}

// RunCtx is Run bounded by a context. The context reaches every layer that
// can stall: the superstep loop checks it at each boundary (committing a
// checkpoint before returning ErrDeadline, like an interrupt), and the
// device retry layer abandons its backoff schedule when it expires. A deadline
// expiry anywhere surfaces classified as ErrDeadline.
func (e *Engine) RunCtx(ctx context.Context, prog vc.Program) (res *superstep.Result, err error) {
	// Contain panics from the run goroutine (engine stages, program
	// callbacks reached outside the worker pool). Deferred cleanup below
	// this frame — the ephemeral scratch sweep, the run-context reset — has
	// already run by the time the recover fires, so the device is left
	// exactly as a failed run leaves it.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()

	res, err = e.runOnce(ctx, prog, e.cfg.Resume, 0)
	if err != nil && errors.Is(err, ssd.ErrCorruptPage) && !errors.Is(err, ErrInterrupted) {
		for rollbacks := 1; e.cfg.CheckpointEvery > 0 && rollbacks <= maxRollbacks; rollbacks++ {
			obsv.Live().Rollbacks.Add(1)
			res, err = e.runOnce(ctx, prog, true, rollbacks)
			if err == nil || !errors.Is(err, ssd.ErrCorruptPage) {
				break
			}
		}
		if err != nil && errors.Is(err, ssd.ErrCorruptPage) {
			return nil, fmt.Errorf("%w: %w", ErrCorruptData, err)
		}
	}
	// Deadline expiry below a boundary (device retry)
	// propagates as a raw context error; classify it like the boundary path.
	if err != nil && errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadline) {
		err = fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return res, err
}
