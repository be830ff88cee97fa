package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/failure"
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
// re-run as a batch of one, when batch fault isolation kicked in).
type pointResult struct {
	values       []uint32 // this lane's per-vertex distances (Inf = unreached)
	batchSize    int
	supersteps   int
	pagesRead    uint64 // the whole execution's scoped device reads
	pagesWritten uint64
	isolated     bool          // answered by a re-run after its batch faulted
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
	s       *Server
	kind    string // "bfs" or "sssp", as the reply names it
	newProg func(sources []uint32) (*apps.MultiSource, error)

	mu      sync.Mutex
	pending []*pointQuery
	// dispatching says a dispatcher has yet to take its batch; it holds
	// whenever pending is non-empty, so no query is ever left behind.
	dispatching bool
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

// dispatch takes one execution slot, then the oldest pending queries as one
// batch, and runs it under that slot. If more queries are pending than the
// batch may hold it hands dispatching on to a fresh goroutine first, which
// queues for the next slot while this one runs.
func (b *batcher) dispatch() {
	defer b.s.wg.Done()
	b.s.slots <- struct{}{}
	defer func() { <-b.s.slots }()

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

// runBatch executes batch as one lane program under the execution slot its
// dispatcher holds and fans the per-lane results back out. The batch's
// context deadline is the LATEST member deadline: a member whose own
// deadline passes while a longer-deadline companion keeps the run alive
// still gets its result ("late but computed" beats recomputing), while a
// batch whose every member expired is cut before it costs an execution. A
// device fault (failure.Family.Fault) does not fail the companions:
// surviving members re-run as batches of one within their remaining
// deadlines (batch fault isolation).
func (b *batcher) runBatch(batch []*pointQuery) {
	slotAt := time.Now()

	// Panic containment at the batch-goroutine boundary: a panic here
	// (engine internals beyond core's own recovery, or serving code) must
	// not kill the daemon. Members that have not heard back get a
	// classified internal error. A run's scratch needs no sweep here:
	// core removes an ephemeral run's namespace on every exit, a panic
	// unwinding through it included.
	defer func() {
		if rec := recover(); rec != nil {
			obsv.Live().PanicsRecovered.Add(1)
			b.fail(batch, outcomeNeutral, fmt.Errorf("serve: panic in batch execution: %v", rec))
		}
	}()

	latest := batch[0].deadline
	for _, q := range batch {
		q.wait = slotAt.Sub(q.admitted)
		if q.deadline.After(latest) {
			latest = q.deadline
		}
	}

	// Fast-fail a fully-expired batch before it costs anything more than
	// the slot it waited for: no program build, no engine. (Queries park
	// behind busy slots; a short-deadline batch can be dead on dispatch.)
	if !latest.After(slotAt) {
		b.fail(batch, outcomeNeutral,
			fmt.Errorf("serve: every batch member's deadline expired before execution: %w", core.ErrDeadline))
		return
	}

	if b.s.testBatchHook != nil {
		b.s.testBatchHook(b.kind, len(batch))
	}

	res, err := b.execute(batch, latest)
	if err != nil && len(batch) > 1 && failure.Of(err).Fault {
		b.isolate(batch, err)
		return
	}
	b.finish(batch, res, err)
}

// isolate is batch fault isolation: the lane-batched execution died of a
// device fault, so each member with deadline remaining re-runs as a batch
// of one instead of inheriting its companions' failure. The
// re-runs execute sequentially under the batch's admission slot —
// isolation is bounded to one extra run per member and never multiplies
// the daemon's engine concurrency.
func (b *batcher) isolate(batch []*pointQuery, batchErr error) {
	live := obsv.Live()
	live.QueriesIsolated.Add(int64(len(batch)))
	for _, q := range batch {
		one := []*pointQuery{q}
		if !q.deadline.After(time.Now()) {
			// No time left for a re-run: the batch's classified fault is
			// this member's honest outcome.
			b.fail(one, outcomeFault, batchErr)
			continue
		}
		live.QueriesRetried.Add(1)
		res, err := b.execute(one, q.deadline)
		if err != nil {
			err = fmt.Errorf("batch failed (%v); solo retry failed: %w", batchErr, err)
		} else {
			res[0].isolated = true
		}
		b.finish(one, res, err)
	}
}

// execute runs batch as one lane program under deadline, with its own
// scratch namespace and IO scope, and returns each member's result in batch
// order.
func (b *batcher) execute(batch []*pointQuery, deadline time.Time) ([]pointResult, error) {
	sources := make([]uint32, len(batch))
	for i, q := range batch {
		sources[i] = q.source
	}
	prog, err := b.newProg(sources)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	res, st, engine, err := b.s.runEngine(ctx, fmt.Sprintf("q%d", b.s.runSeq.Add(1)), prog)

	live := obsv.Live()
	live.BatchesRun.Add(1)
	if len(batch) > 1 {
		live.BatchedQueries.Add(int64(len(batch)))
	}
	live.QueryPagesRead.Add(int64(st.PagesRead))
	live.QueryPagesWrite.Add(int64(st.PagesWritten))
	if err != nil {
		return nil, err
	}
	out := make([]pointResult, len(batch))
	for i := range out {
		out[i] = pointResult{
			values:       apps.LaneResult(res.Values, len(batch), i),
			batchSize:    len(batch),
			supersteps:   len(res.Report.Supersteps),
			pagesRead:    st.PagesRead,
			pagesWritten: st.PagesWritten,
			engine:       engine,
		}
	}
	return out, nil
}

// finish resolves batch: each member gets its result, or every member
// gets err, with the breaker recorded first.
func (b *batcher) finish(batch []*pointQuery, res []pointResult, err error) {
	if err != nil {
		o := outcomeNeutral
		if failure.Of(err).Fault {
			o = outcomeFault
		}
		b.fail(batch, o, err)
		return
	}
	b.s.brk.recordN(outcomeSuccess, len(batch))
	for i, q := range batch {
		q.deliver(res[i])
	}
}

// fail records o once per member, then hands every member err: a client
// holding its answer must find the breaker already moved.
func (b *batcher) fail(batch []*pointQuery, o outcome, err error) {
	b.s.brk.recordN(o, len(batch))
	for _, q := range batch {
		q.deliver(pointResult{err: err})
	}
}

// runEngine is the one place a serving execution is configured: private
// scratch namespace, ephemeral cleanup on any exit, per-run IO scope, and
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
		RunTag:        tag,
		Ephemeral:     true,
		Scope:         sc,
	}
	res, err := core.New(snap.Graph(), cfg).RunCtx(ctx, prog)
	return res, sc.Stats(), time.Since(start), err
}
