package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// pointQuery is one admitted point query waiting for (a share of) an
// engine execution.
type pointQuery struct {
	source    uint32
	deadline  time.Time
	admitted  time.Time        // when the handler admitted it
	wait      time.Duration    // admitted → its batch held an execution slot; read after done
	done      chan pointResult // buffered(1)
	delivered atomic.Bool      // deliver() wins exactly once
}

// deliver hands the query its result exactly once. The panic-recovery
// path re-fails a batch without knowing which members already heard
// back; the CAS makes double delivery a no-op instead of a blocked send.
func (q *pointQuery) deliver(res pointResult) {
	if q.delivered.CompareAndSwap(false, true) {
		q.done <- res
	}
}

// pointResult is what one query gets back from its batch (or from its
// solo re-run, when batch fault isolation kicked in).
type pointResult struct {
	values       []uint32 // this lane's per-vertex distances (Inf = unreached)
	batchSize    int
	supersteps   int
	pagesRead    uint64 // the whole execution's scoped device reads
	pagesWritten uint64
	isolated     bool          // answered by a solo re-run after its batch faulted
	engine       time.Duration // the engine execution that answered it
	err          error
}

// batcher coalesces compatible point queries of one app kind, driven by
// execution slots rather than a clock: the first pending query starts a
// dispatcher that takes a slot first and then runs whatever is pending, up
// to Options.MaxBatch (a quarter of it under brownout, so a faulty execution
// has fewer co-batched victims). An idle daemon therefore answers a lone
// query at once, and a saturated one coalesces exactly the queries that had
// to wait for a slot anyway — nothing ever waits for company.
type batcher struct {
	s    *Server
	kind string // "bfs" or "sssp"

	mu      sync.Mutex
	pending []*pointQuery
	// dispatching says a dispatcher has yet to take its batch; it holds
	// whenever pending is non-empty, so no query is ever left behind.
	dispatching bool
}

func newBatcher(s *Server, kind string) *batcher {
	return &batcher{s: s, kind: kind}
}

// enqueue admits q, starting a dispatcher unless one is already waiting
// for a slot. Returns an error only when the server is draining.
func (b *batcher) enqueue(q *pointQuery) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.s.closed.Load() {
		return fmt.Errorf("serve: shutting down")
	}
	b.pending = append(b.pending, q)
	if !b.dispatching {
		b.dispatching = true
		b.s.wg.Add(1)
		go b.dispatch()
	}
	return nil
}

// dispatch takes one execution slot from the admission semaphore, then the
// oldest pending queries as one batch, and runs it under that slot. If more
// queries are pending than the batch may hold it hands dispatching on to a
// fresh goroutine first, which queues for the next slot while this one runs.
func (b *batcher) dispatch() {
	defer b.s.wg.Done()
	b.s.sem <- struct{}{}
	defer func() { <-b.s.sem }()

	b.mu.Lock()
	n := min(len(b.pending), b.s.maxBatch())
	batch := b.pending[:n:n]
	b.pending = b.pending[n:]
	if len(b.pending) > 0 {
		b.s.wg.Add(1)
		go b.dispatch()
	} else {
		b.pending, b.dispatching = nil, false
	}
	b.mu.Unlock()
	b.runBatch(batch)
}

// retryable reports whether a failed batch execution is worth isolating:
// the fault families where re-running members individually can plausibly
// succeed (a transient storm that exhausted retries, corruption that a
// fresh run's fresh scratch won't re-read, quota pressure that smaller
// solo runs fit under). Deadlines and cancellations are not — the
// members' own deadlines are as dead solo as batched.
func retryable(err error) bool {
	return errors.Is(err, ssd.ErrRetriesExhausted) ||
		errors.Is(err, core.ErrCorruptData) ||
		errors.Is(err, ssd.ErrCorruptPage) ||
		errors.Is(err, ssd.ErrNoSpace)
}

// runBatch executes one lane-batched engine run for batch, under the
// execution slot its dispatcher holds, and fans the per-lane results back
// out. The batch's context deadline is the LATEST member deadline: a member
// whose own deadline passes while a longer-deadline companion keeps the run
// alive still gets its result ("late but computed" beats recomputing), while
// a batch whose every member expired is cut before it costs an execution. A
// retryable device fault does not fail the companions: surviving members
// re-run solo within their remaining deadlines (batch fault isolation).
func (b *batcher) runBatch(batch []*pointQuery) {
	live := obsv.Live()
	slotAt := time.Now()

	// Panic containment at the batch-goroutine boundary: a panic here
	// (engine internals beyond core's own recovery, or serving code)
	// must not kill the daemon. Members that have not heard back get a
	// classified internal error; the run's scratch namespace is swept
	// (the engine's own ephemeral sweep already ran during unwinding if
	// the panic rose through it — this one covers panics around it).
	var tag string
	defer func() {
		if rec := recover(); rec != nil {
			live.PanicsRecovered.Add(1)
			if tag != "" {
				_, _ = b.s.dev.RemovePrefix(b.s.g.Name() + "." + tag + ".")
			}
			err := fmt.Errorf("serve: panic in batch execution: %v", rec)
			for _, q := range batch {
				q.deliver(pointResult{err: err, batchSize: len(batch)})
			}
			b.s.brk.recordN(outcomeNeutral, len(batch))
		}
	}()

	sources := make([]uint32, len(batch))
	latest := batch[0].deadline
	for i, q := range batch {
		q.wait = slotAt.Sub(q.admitted)
		sources[i] = q.source
		if q.deadline.After(latest) {
			latest = q.deadline
		}
	}

	// Fast-fail a fully-expired batch before it costs anything more than
	// the slot it waited for: no program build, no engine. (Queries park
	// behind busy slots; a short-deadline batch can be dead on dispatch.)
	if !latest.After(slotAt) {
		err := fmt.Errorf("serve: every batch member's deadline expired before execution: %w", core.ErrDeadline)
		for _, q := range batch {
			q.deliver(pointResult{err: err, batchSize: len(batch)})
		}
		b.s.brk.recordN(outcomeNeutral, len(batch))
		return
	}

	if b.s.testBatchHook != nil {
		b.s.testBatchHook(b.kind, len(batch))
	}

	var prog vc.Program
	var err error
	switch b.kind {
	case "bfs":
		prog, err = apps.NewMultiBFS(sources)
	case "sssp":
		prog, err = apps.NewMultiSSSP(sources)
	default:
		err = fmt.Errorf("serve: unknown batch kind %q", b.kind)
	}
	if err != nil {
		for _, q := range batch {
			q.deliver(pointResult{err: err, batchSize: len(batch)})
		}
		b.s.brk.recordN(outcomeNeutral, len(batch))
		return
	}

	tag = fmt.Sprintf("q%d", b.s.runSeq.Add(1))
	ctx, cancel := context.WithDeadline(context.Background(), latest)
	defer cancel()
	res, st, engine, err := b.s.runEngine(ctx, tag, prog)

	live.BatchesRun.Add(1)
	if len(batch) > 1 {
		live.BatchedQueries.Add(int64(len(batch)))
	}
	live.QueryPagesRead.Add(int64(st.PagesRead))
	live.QueryPagesWrite.Add(int64(st.PagesWritten))

	if err != nil {
		if len(batch) > 1 && retryable(err) {
			b.isolate(batch, err)
			return
		}
		o := outcomeNeutral
		if retryable(err) {
			o = outcomeFault
		}
		// Record first: a client holding its answer must find the breaker moved.
		b.s.brk.recordN(o, len(batch))
		for _, q := range batch {
			q.deliver(pointResult{err: err, batchSize: len(batch)})
		}
		return
	}
	b.s.brk.recordN(outcomeSuccess, len(batch))
	for i, q := range batch {
		q.deliver(pointResult{
			values:       apps.LaneResult(res.Values, len(batch), i),
			batchSize:    len(batch),
			supersteps:   len(res.Report.Supersteps),
			pagesRead:    st.PagesRead,
			pagesWritten: st.PagesWritten,
			engine:       engine,
		})
	}
}

// isolate is batch fault isolation: the lane-batched execution died of a
// retryable device fault, so each member with deadline remaining re-runs
// as an individual single-source execution instead of inheriting its
// companions' failure. Solo runs execute sequentially under the batch's
// admission slot — isolation is bounded to one extra run per member and
// never multiplies the daemon's engine concurrency.
func (b *batcher) isolate(batch []*pointQuery, batchErr error) {
	live := obsv.Live()
	live.QueriesIsolated.Add(int64(len(batch)))
	for _, q := range batch {
		if !q.deadline.After(time.Now()) {
			// No time left for a solo run: the batch's classified fault
			// is this member's honest outcome.
			b.s.brk.record(outcomeFault)
			q.deliver(pointResult{err: batchErr, batchSize: len(batch)})
			continue
		}
		live.QueriesRetried.Add(1)
		res := b.runSolo(q, batchErr)
		o := outcomeSuccess
		if res.err != nil {
			o = outcomeNeutral
			if retryable(res.err) {
				o = outcomeFault
			}
		}
		b.s.brk.record(o)
		q.deliver(res)
	}
}

// runSolo executes one member's single-source program under its own
// deadline, scratch namespace, and IO scope.
func (b *batcher) runSolo(q *pointQuery, batchErr error) pointResult {
	prog, err := apps.NewPoint(b.kind, q.source)
	if err != nil {
		return pointResult{err: err, batchSize: 1}
	}
	tag := fmt.Sprintf("q%d", b.s.runSeq.Add(1))
	ctx, cancel := context.WithDeadline(context.Background(), q.deadline)
	defer cancel()
	res, st, engine, err := b.s.runEngine(ctx, tag, prog)

	live := obsv.Live()
	live.BatchesRun.Add(1)
	live.QueryPagesRead.Add(int64(st.PagesRead))
	live.QueryPagesWrite.Add(int64(st.PagesWritten))
	if err != nil {
		return pointResult{
			err:       fmt.Errorf("batch failed (%v); solo retry failed: %w", batchErr, err),
			batchSize: 1, isolated: true,
		}
	}
	return pointResult{
		values:       res.Values,
		batchSize:    1,
		supersteps:   len(res.Report.Supersteps),
		pagesRead:    st.PagesRead,
		pagesWritten: st.PagesWritten,
		isolated:     true,
		engine:       engine,
	}
}

// runEngine is the one place a serving execution is configured: private
// scratch namespace, ephemeral cleanup on any exit, per-run IO scope,
// shared cache. It also times the execution.
func (s *Server) runEngine(ctx context.Context, tag string, prog vc.Program) (*superstep.Result, ssd.Stats, time.Duration, error) {
	start := time.Now()
	// Pin the delta epoch for the whole execution: queries read a frozen
	// graph while streaming ingest acknowledges mutations around them,
	// and every lane of the batch sees the same structure.
	snap := s.g.Snapshot()
	defer snap.Release()
	sc := ssd.NewScope()
	cfg := core.Config{
		MemoryBudget:  s.opts.MemoryBudget,
		MaxSupersteps: s.opts.MaxSupersteps,
		Cache:         s.opts.Cache,
		RunTag:        tag,
		Ephemeral:     true,
		Scope:         sc,
	}
	res, err := core.New(snap.Graph(), cfg).RunCtx(ctx, prog)
	return res, sc.Stats(), time.Since(start), err
}
