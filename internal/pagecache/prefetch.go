package pagecache

import (
	"context"
	"sync"

	"multilogvc/internal/ssd"
)

// Job describes one prefetch request: warm the listed pages of a file,
// optionally pinning them so they survive until the consuming batch
// releases its epoch. Expand, when set, runs after the pages are warm and
// returns follow-up jobs — this is how two-stage CSR prefetch works: the
// first job warms rowptr pages, its Expand reads the (now cached) row
// entries and emits a second job for the colidx pages they point at.
type Job struct {
	File   *ssd.File
	Pages  []int
	Pin    bool
	Expand func() ([]Job, error)
}

// PrefetchStats counts prefetcher activity. Page-level outcomes (inserts,
// drops by backpressure, demand hits) live in the cache's Stats; these
// counters cover the job pipeline itself.
type PrefetchStats struct {
	Submitted   uint64 `json:"submitted"`    // jobs accepted into the queue
	Dropped     uint64 `json:"dropped"`      // jobs refused because the queue was full
	Skipped     uint64 `json:"skipped"`      // jobs cancelled by a generation bump
	Jobs        uint64 `json:"jobs"`         // jobs processed (including expansions)
	PagesWarmed uint64 `json:"pages_warmed"` // pages fetched into the cache
	Errors      uint64 `json:"errors"`       // jobs that hit a device or expand error
}

// Sub returns s - t, counter-wise.
func (s PrefetchStats) Sub(t PrefetchStats) PrefetchStats {
	return PrefetchStats{
		Submitted:   s.Submitted - t.Submitted,
		Dropped:     s.Dropped - t.Dropped,
		Skipped:     s.Skipped - t.Skipped,
		Jobs:        s.Jobs - t.Jobs,
		PagesWarmed: s.PagesWarmed - t.PagesWarmed,
		Errors:      s.Errors - t.Errors,
	}
}

// pinned records pins taken by the worker so an epoch release can undo them.
type pinned struct {
	f     *ssd.File
	pages []int
}

// item is a queued job tagged with the generation and epoch it belongs to.
type item struct {
	gen   uint64
	epoch uint64
	job   Job
}

// Prefetcher warms cache pages on a single background goroutine while the
// engine computes. It is built around three rules:
//
//   - Cancellation: CancelPending bumps a generation counter; queued jobs
//     from older generations are skipped, so a superstep boundary cuts off
//     stale predictions instantly without waiting for the queue to drain.
//   - Pin epochs: pins taken for interval i+1's pages are grouped under an
//     epoch and released once the batch that consumed them finishes, so a
//     prefetched page cannot be evicted between warm and use.
//   - Error isolation: device errors during prefetch are recorded (first
//     error wins, Err) and counted, never propagated as panics — a failed
//     prefetch degrades to a demand miss, where the same error will
//     surface on the synchronous path if it persists.
type Prefetcher struct {
	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint64
	nextEp   uint64
	epochs   map[uint64][]pinned // live epochs -> pins to release
	pending  int
	firstErr error
	stats    PrefetchStats
	warmBuf  []byte // one page of scratch, touched by the worker goroutine only

	queue chan item
	stop  chan struct{}
	done  chan struct{}
}

// NewPrefetcher starts a prefetcher with the given queue depth (minimum 1).
// Callers must Close it to stop the worker and release outstanding pins.
func NewPrefetcher(queueDepth int) *Prefetcher {
	if queueDepth < 1 {
		queueDepth = 1
	}
	p := &Prefetcher{
		epochs: make(map[uint64][]pinned),
		queue:  make(chan item, queueDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.worker()
	return p
}

// BeginEpoch opens a pin epoch and returns its handle. Jobs submitted
// against it record their pins there until ReleaseEpoch.
func (p *Prefetcher) BeginEpoch() uint64 {
	p.mu.Lock()
	p.nextEp++
	e := p.nextEp
	p.epochs[e] = nil
	p.mu.Unlock()
	return e
}

// Submit enqueues jobs under the given epoch. It never blocks: when the
// queue is full the job is dropped and counted — prefetch is a hint, the
// demand path remains correct without it.
func (p *Prefetcher) Submit(epoch uint64, jobs ...Job) {
	for _, j := range jobs {
		if j.File == nil && j.Expand == nil {
			continue
		}
		p.mu.Lock()
		it := item{gen: p.gen, epoch: epoch, job: j}
		p.pending++
		p.stats.Submitted++
		p.mu.Unlock()
		select {
		case p.queue <- it:
		default:
			p.mu.Lock()
			p.stats.Submitted--
			p.stats.Dropped++
			p.finishLocked()
			p.mu.Unlock()
		}
	}
}

// CancelPending invalidates all queued but unprocessed jobs. Jobs already
// being processed finish; their pins still land in their epoch and are
// released normally.
func (p *Prefetcher) CancelPending() {
	p.mu.Lock()
	p.gen++
	p.mu.Unlock()
}

// ReleaseEpoch unpins everything recorded under the epoch. Safe to call
// while the epoch's jobs are still in flight: late pins for a released
// epoch are undone immediately by the worker.
func (p *Prefetcher) ReleaseEpoch(epoch uint64) {
	p.mu.Lock()
	pins := p.epochs[epoch]
	delete(p.epochs, epoch)
	p.mu.Unlock()
	unpinAll(pins)
}

// ReleaseAll unpins every live epoch. Engines call it at superstep end as
// a backstop against epochs orphaned by early termination.
func (p *Prefetcher) ReleaseAll() {
	p.mu.Lock()
	all := make([][]pinned, 0, len(p.epochs))
	for e, pins := range p.epochs {
		all = append(all, pins)
		delete(p.epochs, e)
	}
	p.mu.Unlock()
	for _, pins := range all {
		unpinAll(pins)
	}
}

func unpinAll(pins []pinned) {
	for _, pn := range pins {
		pn.f.UnpinPages(pn.pages)
	}
}

// Err returns the first error any prefetch job hit, or nil.
func (p *Prefetcher) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}

// Stats returns a snapshot of the job counters.
func (p *Prefetcher) Stats() PrefetchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// WaitIdle blocks until every submitted job has been processed, skipped,
// or dropped. Intended for tests and deterministic measurements.
func (p *Prefetcher) WaitIdle() {
	p.mu.Lock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// WaitIdleCtx is WaitIdle bounded by a context: it returns the context's
// error as soon as ctx is done, leaving any still-pending jobs to finish
// (or be cancelled) in the background. Engines use it so a run deadline is
// not overshot waiting for an unlucky prefetch queue.
func (p *Prefetcher) WaitIdleCtx(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.cond.Wait()
	}
	return ctx.Err()
}

// Close cancels pending work, stops the worker, and releases all pins.
func (p *Prefetcher) Close() {
	p.CancelPending()
	close(p.stop)
	<-p.done
	// The worker is gone; drain jobs it never dequeued so WaitIdle callers
	// (and the pending counter) settle.
	for {
		select {
		case <-p.queue:
			p.mu.Lock()
			p.stats.Skipped++
			p.finishLocked()
			p.mu.Unlock()
		default:
			p.ReleaseAll()
			return
		}
	}
}

func (p *Prefetcher) worker() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		case it := <-p.queue:
			p.process(it)
		}
	}
}

// process runs one job and its expansions, then marks it finished.
func (p *Prefetcher) process(it item) {
	defer func() {
		p.mu.Lock()
		p.finishLocked()
		p.mu.Unlock()
	}()

	p.mu.Lock()
	stale := it.gen != p.gen
	if stale {
		p.stats.Skipped++
	}
	p.mu.Unlock()
	if stale {
		return
	}
	p.runJob(it.gen, it.epoch, it.job)
}

// runJob warms one job's pages and recurses into its expansions. Expansion
// jobs run inline on the worker (same generation and epoch) so the parent
// stays "pending" until the whole tree is done.
func (p *Prefetcher) runJob(gen, epoch uint64, j Job) {
	p.mu.Lock()
	p.stats.Jobs++
	cancelled := gen != p.gen
	p.mu.Unlock()
	if cancelled {
		return
	}

	if j.File != nil && len(j.Pages) > 0 {
		if ps := j.File.PageSize(); len(p.warmBuf) < ps {
			p.warmBuf = make([]byte, ps)
		}
		warmed, pinnedPages, err := j.File.WarmPages(j.Pages, j.Pin, p.warmBuf)
		p.mu.Lock()
		p.stats.PagesWarmed += uint64(len(warmed))
		if err != nil {
			p.stats.Errors++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
		p.mu.Unlock()
		// Record only the pins that actually landed: a warmed page whose
		// pin lost the race to an eviction must not be unpinned at epoch
		// release, or the release would strip a pin a concurrent run took
		// on the re-inserted frame.
		if j.Pin && len(pinnedPages) > 0 {
			p.recordPins(epoch, j.File, pinnedPages)
		}
		if err != nil {
			return
		}
	}

	if j.Expand != nil {
		children, err := j.Expand()
		if err != nil {
			p.mu.Lock()
			p.stats.Errors++
			if p.firstErr == nil {
				p.firstErr = err
			}
			p.mu.Unlock()
			return
		}
		for _, child := range children {
			p.runJob(gen, epoch, child)
		}
	}
}

// recordPins attaches pins to their epoch, or undoes them right away if
// the epoch was already released (the batch finished before the prefetch).
func (p *Prefetcher) recordPins(epoch uint64, f *ssd.File, pages []int) {
	p.mu.Lock()
	if _, live := p.epochs[epoch]; live {
		p.epochs[epoch] = append(p.epochs[epoch], pinned{f: f, pages: pages})
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	f.UnpinPages(pages)
}

// finishLocked decrements the pending count and wakes WaitIdle waiters.
// Callers must hold p.mu.
func (p *Prefetcher) finishLocked() {
	p.pending--
	if p.pending <= 0 {
		p.cond.Broadcast()
	}
}
