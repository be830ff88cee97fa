package ssd

import "fmt"

// This file holds the cache-aware read path. With no cache attached none of
// this code runs; the uncached paths in file.go are byte-for-byte the
// original device model, which keeps the paper-faithful baselines comparable.

// missInline is how many missed pages of one cached read fit the stack-backed
// lists; a vertex batch reads a handful of pages per file.
const missInline = 32

// readPagesCached serves a batch read through the attached cache: hits
// copy out of memory for free, and only the missing subset is read from
// the store and charged to the virtual clock — a batch that hits entirely
// costs zero device time, which is precisely the win a buffer pool buys.
// Missed pages enter the cache. Hits and misses are attributed to the
// issuing scope's stage tag, so per-stage cache counters identify which
// stage a miss stalled.
func (f *File) readPagesCached(pages []int, dst []byte) error {
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
	f.dev.noteCache(len(pages)-len(miss), len(miss), f.scope)
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
	f.dev.chargeRead(len(miss), maxPerChannel(f.chanBase, f.dev.cfg.Channels, miss), f.scope)
	for k, p := range miss {
		i := missAt[k]
		c.Put(f.id, p, dst[i*ps:(i+1)*ps], false)
	}
	return nil
}
