// Package superstep is what the three engines (internal/core,
// internal/graphchi, internal/grafboost) have in common, so that they
// differ in their storage layout and in nothing else: the superstep loop
// with its per-superstep device and cache accounting (Loop), the
// static-chunk vertex worker pool (ForEach), the per-worker send buffer
// drained in sender order (SendBuffer), and the active-set and
// message-range assembly over a destination-sorted record slice.
//
// An engine supplies "is work pending" and "run one superstep"; the loop
// never branches on which engine it serves.
package superstep

import (
	"context"
	"fmt"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

// Engine is the storage layout under the loop.
type Engine interface {
	// Pending reports whether any vertex is live or any message is
	// undelivered; a run with nothing pending has converged.
	Pending() bool
	// Superstep executes superstep step and records in ss what only the
	// engine can count (vertices processed, messages, layout-specific
	// pages). Device, cache and time accounting are the loop's.
	Superstep(ctx context.Context, step int, ss *metrics.SuperstepStats) error
}

// Result carries the run report and final vertex values. For a
// lane-batched program (vc.LaneProgram with K > 1 lanes) Values holds
// n×K slots laid out v*K+lane; apps.LaneResult extracts one query's view.
type Result struct {
	Report *metrics.Report
	Values []uint32
}

// Loop drives one run. Begin creates it before the engine's set-up IO;
// the engine fills in the exported fields and calls Run.
type Loop struct {
	Report *metrics.Report
	// Values is the run's vertex value file, loaded into the Result.
	Values *csr.Values
	// MaxSupersteps caps the run; StopAfter, when non-nil, ends it after
	// the superstep for which it returns true.
	MaxSupersteps int
	StopAfter     func(superstep int, cumProcessed uint64) bool
	// Cache, when non-nil, is the page cache attached to the device: the
	// loop tells it where each superstep starts (its eviction policy is
	// built on that) and reports its counter deltas per superstep.
	Cache *pagecache.Cache
	// Trace, when non-nil, receives one "superstep" span per superstep.
	Trace *obsv.Trace
	// StartStep and CumProcessed are non-zero only for a run resumed from
	// a checkpoint. CumProcessed is kept current: it counts the vertex
	// activations of every finished superstep.
	StartStep    int
	CumProcessed uint64
	// Boundary, when non-nil, runs before each superstep, ahead of the
	// loop's own context check; an error ends the run. An engine that can
	// checkpoint uses it to leave a resumable state behind.
	Boundary func(ctx context.Context, step int) error
	// AfterStep, when non-nil, runs once a superstep's accounting is
	// complete and before it is appended to the report; it may add to ss.
	AfterStep func(step int, ss *metrics.SuperstepStats) error

	ctx   context.Context
	io    *ssd.IOScope
	start time.Time
}

// Begin opens a run whose IO is charged to io: it stamps the wall clock,
// names the report, and lets the device's retry backoff on io's handles
// observe ctx until End. Every file the run touches must be opened through
// a handle scoped to io, since the loop counts what io saw.
func Begin(ctx context.Context, io *ssd.IOScope, engine, app, graph string) *Loop {
	if ctx == nil {
		ctx = context.Background()
	}
	io.SetRunContext(ctx)
	return &Loop{
		Report: &metrics.Report{Engine: engine, App: app, Graph: graph},
		ctx:    ctx, io: io, start: time.Now(),
	}
}

// End detaches the run's context from its scope.
func (l *Loop) End() { l.io.SetRunContext(nil) }

// Run executes supersteps until nothing is pending, the cap is reached,
// StopAfter fires, or the context ends (checked at superstep boundaries).
func (l *Loop) Run(eng Engine) (*Result, error) {
	live := obsv.Live()
	live.Runs.Add(1)
	for step := l.StartStep; step < l.MaxSupersteps && eng.Pending(); step++ {
		if l.Boundary != nil {
			if err := l.Boundary(l.ctx, step); err != nil {
				return nil, err
			}
		}
		if err := l.ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: run aborted at superstep %d: %w", l.Report.Engine, step, err)
		}
		if err := l.superstep(eng, step, live); err != nil {
			return nil, err
		}
		if l.StopAfter != nil && l.StopAfter(step, l.CumProcessed) {
			break
		}
	}
	l.Report.Converged = !eng.Pending()
	l.Report.WallTime = time.Since(l.start)
	l.Report.Finish()
	values, err := l.Values.LoadAll()
	if err != nil {
		return nil, err
	}
	return &Result{Report: l.Report, Values: values}, nil
}

// Charge runs fn and folds the IO it charged to the run's scope, and the
// cache's evictions meanwhile, into ss, returning the scope delta. The loop
// charges every superstep this way; an AfterStep hook uses it for work of
// its own (a checkpoint).
func (l *Loop) Charge(ss *metrics.SuperstepStats, fn func() error) (ssd.Stats, error) {
	devBefore := l.io.Stats()
	var cacheBefore pagecache.Stats
	if l.Cache != nil {
		cacheBefore = l.Cache.Stats()
	}
	if err := fn(); err != nil {
		return ssd.Stats{}, err
	}
	delta := l.io.Stats().Sub(devBefore)
	ss.AddDevice(delta)
	if l.Cache != nil {
		ss.AddCache(l.Cache.Stats().Sub(cacheBefore))
	}
	return delta, nil
}

// superstep runs one superstep, accounts for it and publishes it.
func (l *Loop) superstep(eng Engine, step int, live *obsv.LiveVars) error {
	stepStart := time.Now()
	ivBefore := l.io.IntervalIO()
	ss := metrics.SuperstepStats{Superstep: step}
	span := l.Trace.Begin("engine", "superstep")
	span.Arg("step", int64(step))

	if l.Cache != nil {
		l.Cache.NextSweep()
	}
	if _, err := l.Charge(&ss, func() error { return eng.Superstep(l.ctx, step, &ss) }); err != nil {
		return err
	}
	ss.ComputeTime = time.Since(stepStart)
	intervalSkew(&ss, ivBefore, l.io.IntervalIO())
	if l.Cache != nil {
		live.CacheHitRate.Set(ss.CacheHitRate())
		live.CacheResident.Set(int64(l.Cache.Resident()))
		span.Arg("cache_hits", int64(ss.CacheHits))
		span.Arg("cache_misses", int64(ss.CacheMisses))
	}
	l.CumProcessed += ss.Active
	if l.AfterStep != nil {
		if err := l.AfterStep(step, &ss); err != nil {
			return err
		}
	}
	l.Report.Supersteps = append(l.Report.Supersteps, ss)

	span.Arg("active", int64(ss.Active))
	span.Arg("msgs_sent", int64(ss.MsgsSent))
	span.Arg("pages_read", int64(ss.PagesRead))
	span.Arg("pages_written", int64(ss.PagesWritten))
	span.End()
	publishLive(live, &ss)
	return nil
}

// intervalSkew records how unevenly the superstep's interval-tagged device
// traffic spread over the vertex intervals. The histogram keeps the shape;
// IOSkew (busiest/mean) flags stragglers that message-count skew alone can
// miss (a hot interval whose log is small but whose spill or CSR traffic
// is not).
func intervalSkew(ss *metrics.SuperstepStats, before, after map[int]uint64) {
	var maxP, sumP uint64
	var n int
	for iv, p := range after {
		d := p - before[iv]
		if d == 0 {
			continue
		}
		ss.IntervalPages.Observe(d)
		sumP += d
		n++
		maxP = max(maxP, d)
	}
	if sumP > 0 {
		ss.IOSkew = float64(maxP) * float64(n) / float64(sumP)
	}
}

// publishLive pushes the finished superstep onto the process-wide expvar
// gauges — a handful of atomic stores, cheap enough to run unconditionally
// so a debug listener attached mid-run sees live state.
func publishLive(live *obsv.LiveVars, ss *metrics.SuperstepStats) {
	live.Superstep.Set(int64(ss.Superstep))
	live.Active.Set(int64(ss.Active))
	live.PagesRead.Add(int64(ss.PagesRead))
	live.PagesWritten.Add(int64(ss.PagesWritten))
	live.MsgsSent.Add(int64(ss.MsgsSent))
	live.MsgSkew.Set(ss.MsgSkew)
	if adj := ss.ColIdxPagesRead + ss.EdgeLogPagesRead; adj > 0 {
		live.EdgeLogHitRate.Set(float64(ss.EdgeLogPagesRead) / float64(adj))
	}
	live.TransientFaults.Add(int64(ss.TransientFaults))
	live.Retries.Add(int64(ss.Retries))
	live.CorruptPages.Add(int64(ss.CorruptPages))
	live.ElogHeals.Add(int64(ss.ElogHealed))
	live.Spills.Add(int64(ss.Spills))
	live.SpillBytes.Add(int64(ss.SpillBytes))
	live.NoSpaceFaults.Add(int64(ss.NoSpaceFaults))
	live.Reclaims.Add(int64(ss.Reclaims))
	live.ReclaimedBytes.Add(int64(ss.ReclaimedBytes))
	for _, st := range ss.Stages {
		if st.PagesRead > 0 {
			live.StagePagesRead.Add(st.Stage, int64(st.PagesRead))
		}
		if st.PagesWritten > 0 {
			live.StagePagesWritten.Add(st.Stage, int64(st.PagesWritten))
		}
	}
}
