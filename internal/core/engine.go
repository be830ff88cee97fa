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

// ErrInterrupted is returned when the run context passed to RunCtx is
// cancelled. Cancellation seen at a superstep boundary commits a checkpoint
// before returning, so the run is resumable with Config.Resume; one seen
// mid-superstep by the device retry layer surfaces without one, but the
// newest periodic checkpoint (if any) remains valid for Resume.
var ErrInterrupted = errors.New("core: run interrupted")

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

// The memory budget is split as in Fig 4 of the paper: sortPct (X%) for
// the sort-and-group unit, mlogPct (A%) for the multi-log buffers, elogPct
// (B%) for the edge-log buffer.
const (
	sortPct = 75
	mlogPct = 5
	elogPct = 5
)

// IntervalBudget is the sort-and-group share of a memory budget: what one
// vertex interval's update log may take (§V-A1), and so the budget a graph's
// intervals are partitioned by.
func IntervalBudget(memoryBudget int64) int64 { return memoryBudget * sortPct / 100 }

// Config tunes the engine.
type Config struct {
	// MemoryBudget in bytes; defaults to 64 MiB.
	MemoryBudget int64
	// MaxSupersteps defaults to 15, the paper's evaluation cap.
	MaxSupersteps int
	// Workers is the most vertex-processing workers a wave may use;
	// defaults to runtime.GOMAXPROCS(0). A wave forks fewer, down to none,
	// when its expected work is too small to share (superstep.ForEach).
	Workers int
	// DisableEdgeLog turns the edge-log optimizer off (ablation).
	DisableEdgeLog bool
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
	// Cache and Prefetcher are ignored: inert shells kept only because
	// bench/ still sets them (ROADMAP item 11 deletes them). The engine
	// takes the cache from the graph's device.
	Cache      *pagecache.Cache
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
	// SortBudget overrides the sort-and-group budget in bytes (0 derives
	// it from MemoryBudget by IntervalBudget, the paper's split). An
	// interval log exceeding the budget no longer over-allocates: it spills
	// through sortgroup's chunked external sort-group, trading extra device
	// IO for a hard memory bound, with results identical to the in-memory
	// path.
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
	// Scope is the ssd.IOScope the engine charges all its IO to — CSR,
	// scratch files, checkpoints — and whose stage tags, retry-layer run
	// context and counters it reads per superstep. Nil gives the engine a
	// scope of its own; a caller sets it to read the scope's counters.
	Scope *ssd.IOScope
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 64 << 20
	}
	c.MaxSupersteps, c.Workers = superstep.Defaults(c.MaxSupersteps, c.Workers)
	if c.UtilThreshold <= 0 {
		c.UtilThreshold = edgelog.DefaultThreshold
	}
	return c
}

// Engine runs vertex-centric programs with the MultiLogVC architecture.
// It works through a view of the graph scoped to cfg.Scope, so every file
// it touches charges that scope.
type Engine struct {
	g   *csr.Graph
	cfg Config
}

// New creates an engine over an opened CSR graph.
func New(g *csr.Graph, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Scope == nil {
		cfg.Scope = ssd.NewScope()
	}
	return &Engine{g: g.View(cfg.Scope), cfg: cfg}
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
// checkpoint before returning ErrDeadline or ErrInterrupted), and the device
// retry layer abandons its backoff schedule when it ends. A deadline expiry
// anywhere surfaces classified as ErrDeadline, a cancellation as
// ErrInterrupted.
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
	// A context ending below a boundary (device retry) propagates as a raw
	// context error; classify it like the boundary path.
	switch {
	case err == nil, errors.Is(err, ErrDeadline), errors.Is(err, ErrInterrupted):
	case errors.Is(err, context.DeadlineExceeded):
		err = fmt.Errorf("%w: %w", ErrDeadline, err)
	case errors.Is(err, context.Canceled):
		err = fmt.Errorf("%w: %w", ErrInterrupted, err)
	}
	return res, err
}
