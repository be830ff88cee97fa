package pagecache

import (
	"container/heap"
	"testing"
)

// sweepTrace is the access pattern the policy exists for: sweeps passes over
// an ascending page list of perSweep pages, the list drifting between passes
// (every drop-th page leaves, as many new ones join at the end) the way a
// frontier's page set does from one superstep to the next. starts[i] is the
// index in the trace at which pass i begins.
func sweepTrace(sweeps, perSweep, drop int) (trace []int, starts []int) {
	set := make([]int, perSweep)
	for i := range set {
		set[i] = i
	}
	next := perSweep
	for s := 0; s < sweeps; s++ {
		starts = append(starts, len(trace))
		trace = append(trace, set...)
		kept := set[:0]
		for i, pg := range set {
			if (i+s)%drop != 0 {
				kept = append(kept, pg)
			}
		}
		for set = kept; len(set) < perSweep; next++ {
			set = append(set, next)
		}
	}
	return trace, starts
}

// nextUse is a max-heap of (page, index of its next access).
type nextUse [][2]int

func (h nextUse) Len() int           { return len(h) }
func (h nextUse) Less(i, j int) bool { return h[i][1] > h[j][1] }
func (h nextUse) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nextUse) Push(x any)        { *h = append(*h, x.([2]int)) }
func (h *nextUse) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// beladyHits replays trace against a cache of capacity frames that always
// evicts the page whose next access lies furthest ahead — the bound no
// policy that cannot see the future beats.
func beladyHits(trace []int, capacity int) int {
	next := make([]int, len(trace)) // next[i]: index of the next access to trace[i]
	seen := map[int]int{}
	for i := len(trace) - 1; i >= 0; i-- {
		if j, ok := seen[trace[i]]; ok {
			next[i] = j
		} else {
			next[i] = len(trace) + i // never again; distinct so heap entries stay unique
		}
		seen[trace[i]] = i
	}
	resident := map[int]int{} // page -> its current next-use index
	var h nextUse
	hits := 0
	for i, pg := range trace {
		if _, ok := resident[pg]; ok {
			hits++
		} else if len(resident) >= capacity {
			for {
				top := heap.Pop(&h).([2]int)
				if resident[top[0]] == top[1] { // not a superseded entry
					delete(resident, top[0])
					break
				}
			}
		}
		resident[pg] = next[i]
		heap.Push(&h, [2]int{pg, next[i]})
	}
	return hits
}

// TestSweepLoopHitRate: on a cyclic scan of 2.3× the cache with a slowly
// drifting page set — one superstep after another over a graph that does not
// fit — the policy keeps a resident set and hits on it every pass, close to
// what an oracle achieves. CLOCK, which this policy replaced, scored ≈0.10 on
// the engine's own trace of this shape (0.00 on this exact one, like LRU:
// every page is evicted just before its next use).
func TestSweepLoopHitRate(t *testing.T) {
	const frames, sweeps = 1024, 60
	trace, starts := sweepTrace(sweeps, frames*23/10, 64)
	c := New(frames, testPage)
	data := page(1)
	hits, pass := 0, 0
	for i, pg := range trace {
		if pass < len(starts) && starts[pass] == i {
			c.NextSweep()
			pass++
		}
		if c.Get(1, pg, nil) {
			hits++
		} else {
			c.Put(1, pg, data, false)
		}
	}
	got := float64(hits) / float64(len(trace))
	oracle := float64(beladyHits(trace, frames)) / float64(len(trace))
	t.Logf("hit rate %.3f, Belady %.3f over %d accesses", got, oracle, len(trace))
	if got < 0.40 {
		t.Errorf("hit rate %.3f on the loop, want at least 0.40", got)
	}
	if oracle-got > 0.10 {
		t.Errorf("hit rate %.3f is more than 10 points under Belady's %.3f", got, oracle)
	}
}

// TestSweepInterleavedSharedSet: two runs share one cache, as mlvcd's
// execution slots do. Each passes over the shared pages (the graph) and then
// over pages of its own (its scratch), half a pass out of step with the
// other, and each announces its own sweeps — so the counter ticks twice per
// pass and a page is protected for about one pass, not two. Shared pages are
// touched by both runs and stay protected; private ones go stale between
// uses and are what gets evicted.
func TestSweepInterleavedSharedSet(t *testing.T) {
	const frames, shared, private, passes, burst = 1024, 1200, 600, 40, 16
	const perPass = shared + private
	c := New(frames, testPage)
	data := page(1)
	var sharedHits, sharedReads int
	// step performs access number n of the given run: fid 1 holds the shared
	// pages, fid 2 and 3 the private ones.
	step := func(run, n int) {
		pos := n % perPass
		if pos == 0 {
			c.NextSweep()
		}
		fid, pg := uint32(1), pos
		if pos >= shared {
			fid, pg = uint32(2+run), pos-shared
		}
		hit := c.Get(fid, pg, nil)
		if !hit {
			c.Put(fid, pg, data, false)
		}
		if fid == 1 {
			sharedReads++
			if hit {
				sharedHits++
			}
		}
	}
	// Run 1 starts half a pass after run 0; from then on they alternate in
	// bursts, as two goroutines on one core would.
	for n := 0; n < perPass/2; n++ {
		step(0, n)
	}
	for n := 0; n < (passes-1)*perPass; n += burst {
		for k := 0; k < burst; k++ {
			step(0, perPass/2+n+k)
		}
		for k := 0; k < burst; k++ {
			step(1, n+k)
		}
	}
	got := float64(sharedHits) / float64(sharedReads)
	t.Logf("shared-set hit rate %.3f, overall %.3f", got, c.Stats().HitRate())
	if got < 0.40 {
		t.Errorf("hit rate %.3f on the shared set, want at least 0.40", got)
	}
}
