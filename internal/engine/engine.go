// Package engine maps one run's options onto the engine they select:
// MultiLogVC, the GraphChi baseline or the GraFBoost baseline. The facade,
// the experiment harness and the chaos kit all run programs through Run,
// so every caller configures an engine the same way.
package engine

import (
	"context"
	"fmt"

	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/grafboost"
	"multilogvc/internal/graphchi"
	"multilogvc/internal/obsv"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// Kind selects which execution engine runs a program.
type Kind int

const (
	// MultiLog is the MultiLogVC engine (the paper's system).
	MultiLog Kind = iota
	// GraphChi is the shard-based baseline.
	GraphChi
	// GraFBoost is the single-log baseline (requires a Combiner).
	GraFBoost
	// GraFBoostAdapted is the single log forced to keep all messages,
	// enabling non-combinable programs (§VIII).
	GraFBoostAdapted
)

// String returns the name Parse accepts and the engine's reports carry.
func (k Kind) String() string {
	switch k {
	case MultiLog:
		return "multilogvc"
	case GraphChi:
		return "graphchi"
	case GraFBoost:
		return "grafboost"
	case GraFBoostAdapted:
		return "grafboost-adapted"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// Parse maps a name to a Kind; the empty name is MultiLog.
func Parse(name string) (Kind, error) {
	switch name {
	case "multilogvc", "mlvc", "":
		return MultiLog, nil
	case "graphchi":
		return GraphChi, nil
	case "grafboost":
		return GraFBoost, nil
	case "grafboost-adapted":
		return GraFBoostAdapted, nil
	}
	return 0, fmt.Errorf("engine: unknown engine %q", name)
}

// Options tunes one program run.
type Options struct {
	// Engine defaults to MultiLog.
	Engine Kind
	// MaxSupersteps defaults to 15, the paper's evaluation cap.
	MaxSupersteps int
	// Workers is the most vertex-processing workers a wave may use
	// (defaults to GOMAXPROCS). It is a cap, not a fixed fan-out: a wave
	// runs on the calling goroutine alone unless each worker would get
	// enough messages and sends to repay starting it.
	Workers int
	// StopAfter ends the run early; it receives the superstep index and
	// the cumulative number of vertex activations.
	StopAfter func(superstep int, cumProcessed uint64) bool
	// DisableEdgeLog / DisableFusing switch off MultiLogVC optimizations
	// (ablations).
	DisableEdgeLog bool
	DisableFusing  bool
	// Async selects MultiLogVC's asynchronous computation model (§V-F):
	// forward updates are delivered within the sending superstep.
	// Fixpoint algorithms (BFS, SSSP, WCC, PageRank) converge in fewer
	// supersteps; phase-structured algorithms (MIS) need synchronous
	// execution. Only the MultiLogVC engine honors it.
	Async bool
	// Trace, when non-nil, records the run's spans: one "superstep" span
	// per superstep on every engine, and per-stage spans inside them on
	// the MultiLogVC engine only. Disabled tracing costs one pointer test
	// per span.
	Trace *obsv.Trace
	// CheckpointEvery commits a crash-recovery checkpoint every K
	// superstep boundaries (MultiLogVC engine only); 0 disables it.
	// Checkpoint IO is charged to the device and reported per superstep.
	CheckpointEvery int
	// Resume restarts from the latest valid checkpoint on the device
	// (MultiLogVC engine only). With none present the run starts fresh;
	// if every checkpoint slot is torn or corrupt the run fails with
	// ckpt.ErrCorrupt.
	Resume bool
	// Context, when non-nil, bounds the run on every engine alike:
	// cancellation or a deadline stops it at the next superstep boundary,
	// and the device's transient-fault retry backoff observes it too. The
	// MultiLogVC engine commits a checkpoint first and classifies deadline
	// expiry as core.ErrDeadline (plain cancellation as
	// core.ErrInterrupted); the baseline engines, which have no
	// checkpoints, stop with the context's error wrapped.
	Context context.Context
	// SortBudget overrides the in-memory sort bound in bytes (MultiLogVC
	// engine only); interval logs above it spill through the external
	// sort-group. 0 derives it from the graph's MemoryBudget as usual.
	SortBudget int64
}

// Run executes prog over g on the engine o selects, with memBudget as the
// run's memory budget. An Engine value outside the four kinds is an error.
func Run(g *csr.Graph, memBudget int64, prog vc.Program, o Options) (*superstep.Result, error) {
	ctx := o.Context // nil means context.Background()
	switch o.Engine {
	case MultiLog:
		return core.New(g, core.Config{
			MemoryBudget:    memBudget,
			SortBudget:      o.SortBudget,
			MaxSupersteps:   o.MaxSupersteps,
			Workers:         o.Workers,
			StopAfter:       o.StopAfter,
			DisableEdgeLog:  o.DisableEdgeLog,
			DisableFusing:   o.DisableFusing,
			Async:           o.Async,
			Trace:           o.Trace,
			CheckpointEvery: o.CheckpointEvery,
			Resume:          o.Resume,
		}).RunCtx(ctx, prog)
	case GraphChi:
		return graphchi.New(g, graphchi.Config{
			MaxSupersteps: o.MaxSupersteps,
			Workers:       o.Workers,
			StopAfter:     o.StopAfter,
			Trace:         o.Trace,
		}).RunCtx(ctx, prog)
	case GraFBoost, GraFBoostAdapted:
		return grafboost.New(g, grafboost.Config{
			MemoryBudget:  memBudget,
			MaxSupersteps: o.MaxSupersteps,
			Workers:       o.Workers,
			Adapted:       o.Engine == GraFBoostAdapted,
			StopAfter:     o.StopAfter,
			Trace:         o.Trace,
		}).RunCtx(ctx, prog)
	}
	return nil, fmt.Errorf("engine: unknown engine kind %d", int(o.Engine))
}
