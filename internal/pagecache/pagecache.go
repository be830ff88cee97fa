// Package pagecache implements a sharded buffer-pool page cache that sits
// between the engines and the simulated flash device (internal/ssd).
//
// MultiLogVC's CSR layout already narrows each superstep's reads to the
// pages holding active vertices, but the engines re-fetch those pages from
// the device on every superstep even when the active set barely changes.
// FlashGraph showed that a compact page cache in front of an SSD is the
// single biggest lever for semi-external graph engines; this package adds
// that lever without touching correctness: reads are served from cached
// page copies when possible, writes go through to the device and update
// resident copies in place, and truncation invalidates a file's pages.
//
// Eviction is sweep-aware. An engine reads its pages in the same interval
// order every superstep, and the pages one superstep touches usually outnumber
// the frames; on such a loop every recency policy (LRU, CLOCK) evicts each
// page just before it is asked for again and the cache hits almost never.
// What separates the page needed soonest from the one needed last is where
// the superstep started, and the engine knows that: superstep.Loop calls
// NextSweep at the start of every superstep, and every frame records the
// sweep of its last touch (hit, insert or refresh). A miss on a full shard
// takes, in order, a free frame; the first frame from the hand that was
// touched in neither this sweep nor the last (the frontier has moved past
// it); otherwise the frame of the shard's newest insert — on a loop that is
// the page needed furthest in the future, so the resident set stays put and
// the overflow streams through one frame per shard. The cache is
// demand-only: a page enters it only because a read missed on it, and no
// frame is ever pinned, so every miss on a full shard evicts.
//
// Limits, stated because the policy has no fallback for any of them. Several
// runs sharing one cache (mlvcd) tick the same counter, so "the last two
// sweeps" shortens in time as concurrency rises and protection decays toward
// plain recency: pages every run touches (the graph) stay protected, a run's
// private scratch pages may not. A cache nobody announces sweeps to never
// finds a stale frame: it keeps its first fill and streams the rest. Every
// engine announces through the one driver, and the readers that do not (csr
// merges, scrub) never read a page twice, so there is no second policy and
// no mode switch for that case. And a shard full of protected pages gives
// the overflow one frame, so a page read twice within a sweep, further apart
// than the shard's next miss, is fetched twice: GraphChi's sliding windows
// do that and read more than under CLOCK while the cache is under about a third
// of the shards (DESIGN §5 has the numbers).
//
// The cache identifies pages by the owning file's device-assigned ID plus
// the page index, so reopened or recreated files can never alias stale
// cached contents.
package pagecache

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the number of independently locked cache shards.
const DefaultShards = 8

// Stats is a snapshot of the cache counters. Like ssd.Stats it is a plain
// value with a Sub method, so engines can compute per-superstep deltas by
// snapshotting before and after.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`

	Inserts   uint64 `json:"inserts"`
	Evictions uint64 `json:"evictions"`
	Writes    uint64 `json:"writes"` // write-through updates of resident pages

	Invalidations uint64 `json:"invalidations"`

	PrefetchDropped uint64 `json:"prefetch_dropped"` // inert shell, always 0: see Prefetcher
}

// Sub returns s - t, counter-wise; t must be an earlier snapshot.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Hits:          s.Hits - t.Hits,
		Misses:        s.Misses - t.Misses,
		Inserts:       s.Inserts - t.Inserts,
		Evictions:     s.Evictions - t.Evictions,
		Writes:        s.Writes - t.Writes,
		Invalidations: s.Invalidations - t.Invalidations,
	}
}

// HitRate returns hits / (hits + misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// frame is one cached page.
type frame struct {
	key   uint64
	data  []byte
	sweep uint64 // sweep of the last hit, insert or refresh
}

// shard is an independently locked ring of frames.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   []frame
	free     []int          // invalidated slots, reused before anything is evicted
	hand     int            // where the next search for a stale frame starts
	newest   int            // slot of the newest insert
	noStale  uint64         // 1 + the sweep in which a whole lap found no stale frame
	index    map[uint64]int // key -> frame slot
	stats    Stats
}

// Cache is a sharded buffer pool for device pages. All methods are safe
// for concurrent use. Page data is copied in and out; callers never hold
// references into cache memory.
type Cache struct {
	pageSize int
	capacity int // total frames over all shards
	sweep    atomic.Uint64
	shards   []shard
}

// New creates a cache holding up to capacityPages pages of pageSize bytes
// each, spread over DefaultShards shards. A capacity below one page per
// shard shrinks the shard count so every shard holds at least one page.
func New(capacityPages, pageSize int) *Cache {
	return NewSharded(capacityPages, pageSize, DefaultShards)
}

// FromMB creates a cache sized in whole mebibytes, the unit the -cache-mb
// CLI knob uses. mb <= 0 returns nil (caching disabled).
func FromMB(mb, pageSize int) *Cache {
	if mb <= 0 {
		return nil
	}
	pages := mb << 20 / pageSize
	if pages < 1 {
		pages = 1
	}
	return New(pages, pageSize)
}

// NewSharded is New with an explicit shard count (tests use one shard for
// deterministic eviction order).
func NewSharded(capacityPages, pageSize, shards int) *Cache {
	if capacityPages < 1 {
		capacityPages = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacityPages {
		shards = capacityPages
	}
	c := &Cache{pageSize: pageSize, capacity: capacityPages, shards: make([]shard, shards)}
	per := capacityPages / shards
	extra := capacityPages % shards
	for i := range c.shards {
		cap := per
		if i < extra {
			cap++
		}
		c.shards[i] = shard{capacity: cap, index: make(map[uint64]int, cap)}
	}
	return c
}

// NextSweep announces that a new pass over the data begins: pages touched
// in neither the pass that just ended nor this one become evictable. The
// superstep driver calls it once per superstep; the counter is 64-bit
// because a busy daemon ticks it thousands of times a second.
func (c *Cache) NextSweep() { c.sweep.Add(1) }

// PageSize returns the page size the cache was built for.
func (c *Cache) PageSize() int { return c.pageSize }

// CapacityPages returns the total frame capacity.
func (c *Cache) CapacityPages() int { return c.capacity }

// pageKey packs a file ID and page index into the cache key.
func pageKey(fid uint32, page int) uint64 {
	return uint64(fid)<<32 | uint64(uint32(page))
}

// shardOf picks the shard for a key (fibonacci hashing of the packed key).
func (c *Cache) shardOf(key uint64) *shard {
	h := key * 0x9E3779B97F4A7C15
	return &c.shards[h>>33%uint64(len(c.shards))]
}

// Get copies the cached page into dst (when dst is non-nil) and reports
// whether the page was resident. A hit stamps the frame with the current
// sweep.
func (c *Cache) Get(fid uint32, page int, dst []byte) bool {
	key := pageKey(fid, page)
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return false
	}
	f := &s.frames[i]
	if dst != nil {
		copy(dst, f.data)
	}
	f.sweep = c.sweep.Load()
	s.stats.Hits++
	return true
}

// Contains reports residency without touching the frame or the counters.
func (c *Cache) Contains(fid uint32, page int) bool {
	key := pageKey(fid, page)
	s := c.shardOf(key)
	s.mu.Lock()
	_, ok := s.index[key]
	s.mu.Unlock()
	return ok
}

// Put inserts (or refreshes) a page copy, stamped with the current sweep. A
// new page takes a free frame — one never used yet, else one an invalidation
// emptied — if there is one. Otherwise it evicts a stale frame or, when none
// is stale, recycles the frame of the newest insert. The page is always
// resident afterwards, and Put reports true. The fourth argument is an inert
// shell and is ignored: see Prefetcher.
func (c *Cache) Put(fid uint32, page int, data []byte, _ bool) bool {
	key := pageKey(fid, page)
	cur := c.sweep.Load()
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()

	if i, ok := s.index[key]; ok {
		f := &s.frames[i]
		copy(f.data, data)
		f.sweep = cur
		return true
	}

	// Never-used capacity first, then an invalidated frame, then a victim.
	// Taking invalidated frames first would keep a serving cache at the few
	// hundred pages it needs instead of its configured size — and was
	// measured to cost a third more latency: the collector paces itself by
	// the live heap, and a daemon that allocates megabytes per query in
	// front of a 10 MiB heap collects twelve times as often as in front of
	// a filled 64 MiB cache (DESIGN §5).
	slot := -1
	switch {
	case len(s.frames) < s.capacity:
		s.frames = append(s.frames, frame{})
		slot = len(s.frames) - 1
	case len(s.free) > 0:
		slot = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	default:
		slot = s.findVictim(cur)
		delete(s.index, s.frames[slot].key)
		s.stats.Evictions++
	}
	f := &s.frames[slot]
	f.key = key
	f.data = append(f.data[:0], data...)
	f.sweep = cur
	s.index[key] = slot
	s.stats.Inserts++
	s.newest = slot
	return true
}

// findVictim picks the frame a new page replaces in a full shard. First
// choice is a stale frame: one touched in neither sweep cur nor the one
// before. A frame only turns stale when the sweep advances, so a lap that
// finds none settles the question until then (noStale), and the misses of a
// sweep whose working set is all live cost no walk at all. Otherwise it is
// the newest insert's frame, which is always resident here: every insert
// sets newest, and an invalidated frame goes on the free list, which Put
// empties before it evicts.
func (s *shard) findVictim(cur uint64) int {
	if s.noStale != cur+1 {
		for range s.frames {
			i := s.hand
			s.hand = (s.hand + 1) % len(s.frames)
			if s.frames[i].sweep+1 < cur {
				return i
			}
		}
		s.noStale = cur + 1
	}
	return s.newest
}

// Write updates a resident page copy in place (write-through from the
// device layer). A page that is not resident is left alone: writes do not
// populate the cache, they only keep it coherent.
func (c *Cache) Write(fid uint32, page int, data []byte) {
	key := pageKey(fid, page)
	s := c.shardOf(key)
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		copy(s.frames[i].data, data)
		s.stats.Writes++
	}
	s.mu.Unlock()
}

// Invalidate drops one page if resident.
func (c *Cache) Invalidate(fid uint32, page int) {
	key := pageKey(fid, page)
	s := c.shardOf(key)
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		s.dropFrame(i)
	}
	s.mu.Unlock()
}

// InvalidateFile drops the cached pages [0, pages) of the file — called on
// truncate and remove with the file's page count, so recycled files never
// serve stale pages. It probes the file's own keys and costs what the file
// holds, whatever the size of the cache: a serving run truncates and removes
// dozens of few-page scratch files per query in front of a cache of
// thousands of frames. A file with more pages than the cache has frames is
// dropped by one pass over what is resident instead, so the cost is bounded
// by the smaller of the two.
//
// A frame at page >= pages is left alone. One can exist: the device's read
// paths insert after releasing the file's lock, so a Put may land after the
// truncate that should have covered it. Such a frame lies past the file's
// end, where no in-range read looks, and the caller must Write every page it
// later extends the file with, which overwrites it before it is in range.
func (c *Cache) InvalidateFile(fid uint32, pages int) {
	if pages <= c.capacity {
		for page := 0; page < pages; page++ {
			c.Invalidate(fid, page)
		}
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, slot := range s.index {
			if uint32(key>>32) == fid && int(uint32(key)) < pages {
				s.dropFrame(slot)
			}
		}
		s.mu.Unlock()
	}
}

// dropFrame invalidates slot i: the frame keeps its buffer and goes on the
// shard's free list, which a full shard's Put empties before it evicts.
func (s *shard) dropFrame(i int) {
	f := &s.frames[i]
	delete(s.index, f.key)
	s.free = append(s.free, i)
	s.stats.Invalidations++
}

// Resident returns the number of pages currently cached.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the summed counters of all shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Inserts += st.Inserts
		out.Evictions += st.Evictions
		out.Writes += st.Writes
		out.Invalidations += st.Invalidations
	}
	return out
}

// Inert shells, kept only because bench/ still calls them; ROADMAP item 11
// moves bench/ off them and deletes them. The cache has no prefetcher and
// no pins: Stats.PrefetchDropped and PrefetchAccuracy always read 0,
// PinnedPages returns 0, and Put ignores its fourth argument. The engines
// take the cache from the device it is attached to, so core.Config.Cache
// and serve.Options.Cache are ignored too.

// Prefetcher is an inert shell; see above.
type Prefetcher struct{}

// NewPrefetcher returns an inert shell; see above.
func NewPrefetcher(int) *Prefetcher { return &Prefetcher{} }

// Close does nothing.
func (*Prefetcher) Close() {}

// PrefetchAccuracy always returns 0.
func (Stats) PrefetchAccuracy() float64 { return 0 }

// PinnedPages always returns 0.
func (*Cache) PinnedPages() int { return 0 }
