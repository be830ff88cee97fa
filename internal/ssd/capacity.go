package ssd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrNoSpace is returned when a write would grow the device past its
// configured Capacity (or when no-space injection fires) and running the
// registered reclaimers did not free enough pages. It models the ENOSPC a
// real flash device returns when over-provisioning runs out: retrying the
// same write without freeing space cannot succeed.
var ErrNoSpace = errors.New("ssd: device capacity exhausted")

// Capacity returns the device byte quota (0 = unlimited).
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// UsedBytes returns the bytes currently allocated across all live files
// (allocated pages × page size; checksum sidecars are store metadata and
// are not counted).
func (d *Device) UsedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usedPages * int64(d.cfg.PageSize)
}

// AddReclaimer registers a space-reclamation hook, called (in registration
// order) when a write hits the capacity quota or injected no-space before
// the write is retried once. Hooks free space by truncating or removing
// files whose contents are no longer needed — consumed message-log
// intervals, stale checkpoint slots. A hook MUST NOT touch the file whose
// write triggered reclamation (the writer holds its lock) and must be safe
// to call from any goroutine performing device IO. The returned function
// unregisters the hook.
func (d *Device) AddReclaimer(fn func()) (remove func()) {
	d.reclaimMu.Lock()
	if d.reclaimers == nil {
		d.reclaimers = make(map[int]func())
	}
	id := d.nextReclaimID
	d.nextReclaimID++
	d.reclaimers[id] = fn
	d.reclaimMu.Unlock()
	return func() {
		d.reclaimMu.Lock()
		delete(d.reclaimers, id)
		d.reclaimMu.Unlock()
	}
}

// reserveGrow accounts grow new pages against the device quota. On a quota
// hit or an injected no-space fault it runs the registered reclaimers and
// retries the reservation exactly once; a second failure surfaces as a
// classified ErrNoSpace. Called with the growing file's lock held; see
// AddReclaimer for the resulting constraint on hooks.
func (d *Device) reserveGrow(grow int) error {
	if grow <= 0 {
		return nil
	}
	if !d.noSpaceArmed.Load() {
		d.mu.Lock()
		d.usedPages += int64(grow)
		d.mu.Unlock()
		return nil
	}
	if err := d.tryReserve(grow); err == nil {
		return nil
	}
	d.runReclaimers()
	return d.tryReserve(grow)
}

// tryReserve is one reservation attempt: it consumes a no-space injection
// credit, then checks the quota. On success the pages are accounted used.
func (d *Device) tryReserve(grow int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.noSpace.armed() && d.noSpace.hit() {
		d.stats.NoSpaceFaults++
		return fmt.Errorf("%w (injected)", ErrNoSpace)
	}
	if quota := d.cfg.Capacity; quota > 0 {
		capPages := quota / int64(d.cfg.PageSize)
		if d.usedPages+int64(grow) > capPages {
			d.stats.NoSpaceFaults++
			return fmt.Errorf("%w: need %d pages, %d of %d used",
				ErrNoSpace, grow, d.usedPages, capPages)
		}
	}
	d.usedPages += int64(grow)
	return nil
}

// freePages returns pages to the quota pool (file truncate or removal).
func (d *Device) freePages(n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	d.usedPages -= int64(n)
	if d.usedPages < 0 {
		d.usedPages = 0
	}
	d.mu.Unlock()
}

// runReclaimers executes every registered reclamation hook once, in
// registration order, and accounts the sweep plus whatever it freed.
func (d *Device) runReclaimers() {
	d.reclaimMu.Lock()
	ids := make([]int, 0, len(d.reclaimers))
	for id := range d.reclaimers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, d.reclaimers[id])
	}
	d.reclaimMu.Unlock()

	d.mu.Lock()
	before := d.usedPages
	d.stats.Reclaims++
	d.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
	d.mu.Lock()
	if freed := before - d.usedPages; freed > 0 {
		d.stats.ReclaimedBytes += uint64(freed) * uint64(d.cfg.PageSize)
	}
	d.mu.Unlock()
}

// SetRunContext installs the context consulted between retry attempts (and
// cleared with SetRunContext(nil)). A device whose run context is canceled
// stops burning its retry budget: the next retry attempt returns the
// context's error instead of backing off, so a run deadline cannot be
// overshot by the exponential backoff schedule. The engine installs the
// run context for the duration of a governed run.
func (d *Device) SetRunContext(ctx context.Context) {
	if ctx == nil {
		d.runCtx.Store(&runCtxBox{})
		return
	}
	d.runCtx.Store(&runCtxBox{ctx: ctx})
}

// runCtxBox wraps a context for atomic.Pointer storage (interfaces cannot
// be stored in atomic.Value across differing dynamic types).
type runCtxBox struct{ ctx context.Context }

// runContextErr reports the installed run context's cancellation error, or
// nil when no context is installed or it is still live.
func (d *Device) runContextErr() error {
	box := d.runCtx.Load()
	if box == nil || box.ctx == nil {
		return nil
	}
	return box.ctx.Err()
}

// runCtxErrFor resolves the run context governing a scoped operation: a
// scoped run consults only its own context (its deadline, its
// cancellation), never the device-global slot, so concurrent runs cannot
// abort each other's retries.
func (d *Device) runCtxErrFor(sc *IOScope) error {
	if sc != nil {
		return sc.runContextErr()
	}
	return d.runContextErr()
}

// sleepRetry charges one jittered backoff delay to the virtual clock,
// attributed to the stage whose operation is being retried so per-stage
// times still sum to StorageTime(). A non-nil scope resolves the stage
// from its own tag and mirrors the charge.
func (d *Device) sleepRetry(backoff time.Duration, sc *IOScope) {
	st, _ := d.stageOf(sc)
	d.mu.Lock()
	half := backoff / 2
	delay := half + time.Duration(splitmix64(&d.retryRNG)%uint64(half+1))
	d.stats.Retries++
	d.stats.RetryBackoff += delay
	d.stats.Stages[st].Time += delay
	d.mu.Unlock()
	if sc != nil {
		sc.mu.Lock()
		sc.stats.Retries++
		sc.stats.RetryBackoff += delay
		sc.stats.Stages[st].Time += delay
		sc.mu.Unlock()
	}
}
