package ssd

import (
	"context"
	"sync"
	"sync/atomic"

	"multilogvc/internal/obsv"
)

// IOScope is a run's attribution handle, and the only one the device has:
// IO is charged to the device totals always, and to a scope when the file
// handle that issued it was opened through Device.Scoped (or rebound with
// File.Scoped). A scope carries its own stage/interval tag, its own run
// context, and a private copy of the device counters, so several engine
// runs over one device each see exactly their own IO, stage by stage.
//
// Scopes are cheap (no registration, no device lock) and safe for
// concurrent use. A nil *IOScope is valid: it is untagged (StageOther),
// has no run context and counts nothing, which is what unscoped IO is.
type IOScope struct {
	tag    atomic.Uint64
	runCtx atomic.Pointer[runCtxBox]

	mu      sync.Mutex
	stats   Stats
	ivPages map[int]uint64
}

// runCtxBox wraps a context for atomic.Pointer storage (interfaces cannot
// be stored in atomic.Value across differing dynamic types).
type runCtxBox struct{ ctx context.Context }

// NewScope creates an independent IO scope. Scopes are not tied to a
// device: the association happens per handle, via Device.Scoped.
func NewScope() *IOScope {
	return &IOScope{}
}

// packStage packs a stage and interval into one atomic word. Intervals are
// stored +1 so the zero word reads back as (StageOther, -1).
func packStage(s obsv.Stage, iv int) uint64 {
	return uint64(s) | uint64(uint32(iv+1))<<8
}

func unpackStage(w uint64) (obsv.Stage, int) {
	return obsv.Stage(w & 0xFF), int(uint32(w>>8)) - 1
}

// SetStage tags subsequent IO issued through this scope's handles with the
// given pipeline stage and vertex interval (-1 = none), returning the
// previous tag so a scoped section can restore it:
//
//	prevS, prevIv := sc.SetStage(obsv.StageCheckpoint, -1)
//	defer sc.SetStage(prevS, prevIv)
//
// The tag never changes what IO costs, only which Stats.Stages row it
// lands in. On a nil scope it does nothing.
func (sc *IOScope) SetStage(s obsv.Stage, iv int) (obsv.Stage, int) {
	if sc == nil {
		return obsv.StageOther, -1
	}
	return unpackStage(sc.tag.Swap(packStage(s, iv)))
}

// stage returns the scope's current tag. Out-of-range stages (never
// produced by SetStage with a defined constant) read back as StageOther so
// attribution arrays cannot be indexed out of bounds.
func (sc *IOScope) stage() (obsv.Stage, int) {
	if sc == nil {
		return obsv.StageOther, -1
	}
	st, iv := unpackStage(sc.tag.Load())
	if int(st) >= obsv.NumStages {
		st = obsv.StageOther
	}
	return st, iv
}

// SetRunContext installs the context consulted between retry attempts for
// IO issued through this scope's handles; nil clears it. Once the context
// is canceled the next retry returns its error instead of backing off, so
// a run deadline is not overshot by the exponential backoff schedule.
func (sc *IOScope) SetRunContext(ctx context.Context) {
	sc.runCtx.Store(&runCtxBox{ctx: ctx})
}

func (sc *IOScope) runContextErr() error {
	if sc == nil {
		return nil
	}
	box := sc.runCtx.Load()
	if box == nil || box.ctx == nil {
		return nil
	}
	return box.ctx.Err()
}

// Stats returns a snapshot of the counters accumulated by IO issued
// through this scope's handles. The same Stats shape as the device's, so
// per-run deltas and stage breakdowns work unchanged.
func (sc *IOScope) Stats() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.stats
}

// IntervalIO returns a copy of the cumulative pages moved (read+written)
// per tagged vertex interval by IO issued through this scope. Engines
// snapshot it around a superstep and subtract to find stragglers.
func (sc *IOScope) IntervalIO() map[int]uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[int]uint64, len(sc.ivPages))
	for iv, n := range sc.ivPages {
		out[iv] = n
	}
	return out
}

// Scoped returns a handle of the file whose IO is charged to sc as well as
// to the device. The handle shares the underlying pages, size, and per-file
// counters with every other handle of the same file; only attribution
// differs.
func (f *File) Scoped(sc *IOScope) *File {
	if f == nil || f.scope == sc {
		return f
	}
	g := *f
	g.scope = sc
	return &g
}
