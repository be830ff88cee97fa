package ssd

import (
	"errors"
	"fmt"

	"multilogvc/internal/obsv"
)

// This file holds the cache-aware read path and the prefetch entry points.
// With no cache attached none of this code runs; the uncached paths in
// file.go are byte-for-byte the original device model, which keeps the
// paper-faithful baselines comparable.

// missInline is how many missed pages of one cached read fit the stack-backed
// lists; a vertex batch reads a handful of pages per file.
const missInline = 32

// readPagesCached serves a batch read through the attached cache: hits
// copy out of memory for free, and only the missing subset is read from
// the store and charged to the virtual clock — a batch that hits entirely
// costs zero device time, which is precisely the win a buffer pool buys.
// Missed pages enter the cache as demand inserts. Hits and misses are
// attributed to the stage issuing the read (st; stageAmbient resolves the
// device's current tag), so per-stage cache counters identify which stage
// a miss stalled.
func (f *File) readPagesCached(pages []int, dst []byte, st obsv.Stage) error {
	ps := f.dev.cfg.PageSize
	c := f.dev.cache
	// The two miss lists live on the stack for any batch that misses at most
	// missInline pages: this runs once per cached read.
	var missBuf, atBuf [missInline]int
	miss := missBuf[:0] // page indices still needed from the store
	missAt := atBuf[:0] // their slot in dst
	for i, p := range pages {
		if !c.Get(f.id, p, dst[i*ps:(i+1)*ps]) {
			miss = append(miss, p)
			missAt = append(missAt, i)
		}
	}
	f.dev.noteCache(len(pages)-len(miss), len(miss), st, f.scope)
	if len(miss) == 0 {
		return nil
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	np := f.s.store.numPages()
	for k, p := range miss {
		if p < 0 || p >= np {
			f.s.mu.Unlock()
			return fmt.Errorf("%w: page %d of %q (%d pages)", ErrOutOfRange, p, f.name, np)
		}
		i := missAt[k]
		if err := f.readPageLocked(p, dst[i*ps:(i+1)*ps]); err != nil {
			f.s.mu.Unlock()
			return err
		}
	}
	f.s.mu.Unlock()
	f.s.pagesRead.Add(uint64(len(miss)))
	f.dev.chargeReadStage(len(miss), maxPerChannel(f.chanBase, f.dev.cfg.Channels, miss), st, f.scope)
	for k, p := range miss {
		i := missAt[k]
		c.Put(f.id, p, dst[i*ps:(i+1)*ps], false)
	}
	return nil
}

// WarmPages fetches the listed pages into the cache as prefetch inserts,
// optionally pinning them. It returns the pages it actually fetched
// and inserted, and — when pin is set — the subset it successfully pinned.
// The two can differ under concurrency: on a shared cache another run's
// demand traffic can evict a just-inserted page before the pin lands, and
// treating such a page as pinned would later release a pin belonging to
// whoever re-pinned the frame in between. Epoch bookkeeping must therefore
// track the pinned list, never the warmed list. Already-resident and
// out-of-range pages are skipped; an insert refused by backpressure stops
// the job, since a shard with no free or stale frame for one page has none
// for the rest.
// Only fetched pages are charged to the virtual clock. buf is scratch for
// one page (PageSize bytes) that a caller warming in a loop reuses; a
// shorter one, or nil, is replaced. It is a no-op without an attached cache.
func (f *File) WarmPages(pages []int, pin bool, buf []byte) (warmed, pinned []int, err error) {
	c := f.cache()
	if c == nil || len(pages) == 0 {
		return nil, nil, nil
	}
	ps := f.dev.cfg.PageSize
	if len(buf) < ps {
		buf = make([]byte, ps)
	}
	buf = buf[:ps]
	checked := false
	for _, p := range pages {
		if c.Contains(f.id, p) {
			continue
		}
		if !checked {
			// One fault credit per warm batch, matching the demand paths'
			// one credit per batch submission.
			if err := f.dev.opCheck(f.scope); err != nil {
				return warmed, pinned, err
			}
			checked = true
		}
		f.s.mu.Lock()
		if p < 0 || p >= f.s.store.numPages() {
			f.s.mu.Unlock()
			continue
		}
		err := f.readPageLocked(p, buf)
		f.s.mu.Unlock()
		if errors.Is(err, ErrCorruptPage) {
			// Never cache a corrupt page. Skip it and keep warming: the
			// demand read will re-detect it where the consumer's recovery
			// policy (heal, rollback) can act.
			continue
		}
		if err != nil {
			f.chargeWarm(warmed)
			return warmed, pinned, err
		}
		if !c.Put(f.id, p, buf, true) {
			break // backpressure: every frame is pinned or in use this sweep or the last
		}
		if pin && c.Pin(f.id, p) {
			pinned = append(pinned, p)
		}
		warmed = append(warmed, p)
	}
	f.chargeWarm(warmed)
	return warmed, pinned, nil
}

// chargeWarm accounts the fetched prefetch pages as one read batch,
// attributed to StagePrefetch explicitly: warming runs on the prefetcher's
// goroutine, concurrent with whatever stage the engine tagged, so the
// ambient tag would misattribute it.
func (f *File) chargeWarm(warmed []int) {
	if len(warmed) == 0 {
		return
	}
	f.s.pagesRead.Add(uint64(len(warmed)))
	f.dev.chargeReadStage(len(warmed), maxPerChannel(f.chanBase, f.dev.cfg.Channels, warmed), obsv.StagePrefetch, f.scope)
}

// UnpinPages releases one pin on each listed page. Pages evicted or
// invalidated in the meantime are skipped safely.
func (f *File) UnpinPages(pages []int) {
	c := f.cache()
	if c == nil {
		return
	}
	for _, p := range pages {
		c.Unpin(f.id, p)
	}
}
