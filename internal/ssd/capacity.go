package ssd

import (
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
// classified ErrNoSpace. The faults and the sweep count against the
// issuing scope. Called with the growing file's lock held; see
// AddReclaimer for the resulting constraint on hooks.
func (d *Device) reserveGrow(grow int, sc *IOScope) error {
	if grow <= 0 {
		return nil
	}
	if !d.noSpaceArmed.Load() {
		d.mu.Lock()
		d.usedPages += int64(grow)
		d.mu.Unlock()
		return nil
	}
	if err := d.tryReserve(grow, sc); err == nil {
		return nil
	}
	d.runReclaimers(sc)
	return d.tryReserve(grow, sc)
}

// tryReserve is one reservation attempt, a failed one counted as a
// no-space fault against the issuing scope.
func (d *Device) tryReserve(grow int, sc *IOScope) error {
	err := d.reserve(grow)
	if err != nil {
		d.account(sc, 0, func(s *Stats, _ *StageStats) { s.NoSpaceFaults++ })
	}
	return err
}

// reserve consumes a no-space injection credit, then checks the quota. On
// success the pages are accounted used.
func (d *Device) reserve(grow int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.noSpace.armed() && d.noSpace.hit() {
		return fmt.Errorf("%w (injected)", ErrNoSpace)
	}
	if quota := d.cfg.Capacity; quota > 0 {
		capPages := quota / int64(d.cfg.PageSize)
		if d.usedPages+int64(grow) > capPages {
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
func (d *Device) runReclaimers(sc *IOScope) {
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
	d.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
	d.mu.Lock()
	freed := max(before-d.usedPages, 0)
	d.mu.Unlock()
	d.account(sc, 0, func(s *Stats, _ *StageStats) {
		s.Reclaims++
		s.ReclaimedBytes += uint64(freed) * uint64(d.cfg.PageSize)
	})
}

// sleepRetry charges one jittered backoff delay to the virtual clock,
// attributed to the stage whose operation is being retried so per-stage
// times still sum to StorageTime().
func (d *Device) sleepRetry(backoff time.Duration, sc *IOScope) {
	d.mu.Lock()
	half := backoff / 2
	delay := half + time.Duration(splitmix64(&d.retryRNG)%uint64(half+1))
	d.mu.Unlock()
	d.account(sc, 0, func(s *Stats, st *StageStats) {
		s.Retries++
		s.RetryBackoff += delay
		st.Time += delay
	})
}
