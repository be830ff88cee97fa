package core

import (
	"sync"

	"multilogvc/internal/mlog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/superstep"
)

// workingSet is the engine's standing memory: the buffers a run sizes from
// its memory budget and its batches, and that outlive it for the next run
// (see idle).
type workingSet struct {
	vertexPlane // the vertex data of the batch in progress

	// The vertex stage's send path: workers fill sends, the run goroutine
	// drains it into the logs after every wave.
	ctxs  []engineCtx // one per worker
	sends *superstep.SendBuffer

	logBufs *mlog.Buffers // the buffers both message-log generations draw on
}

// bytes returns the memory ws holds.
func (ws *workingSet) bytes() int64 {
	n := ws.vertexPlane.bytes()
	if ws.sends != nil {
		n += ws.sends.Bytes()
	}
	if ws.logBufs != nil {
		n += ws.logBufs.Bytes()
	}
	for _, c := range ws.ctxs {
		n += 16 * cap(c.muts)
	}
	return int64(n)
}

// idle is the process's stack of working sets no run holds. Every run pops
// the set the latest run to finish left, or starts empty, and pushes its set
// back at close only when its superstep loop returned no error: a run that
// fails, panics or misses its deadline drops its set, so nothing a failed
// run left in a buffer reaches another. A run resizes every buffer it draws
// on for its own graph, budget, worker count and lanes, so no value and no
// device counter of a run depends on which run left its set.
//
// It is a stack, not a sync.Pool, which a collection empties. It has no
// cap: it holds at most one set per run the process ever had in flight at
// once (the serving daemon's MaxConcurrent executions), each sized by the
// largest batch or wave of the runs that held it. Against the largest graph
// and configuration those runs had (lanes the most any of their programs
// had), a set holds at most:
//   - the vertex plane: what a batch over every interval holds — every
//     vertex active with its lanes' values, every out-edge decoded — and a
//     quarter more, the arena's growth step;
//   - the multi-log buffers: the pages of one generation (the log budget
//     plus one page per interval and one more; twice that in the
//     asynchronous model) and a page list per interval and generation, at
//     most 64 pages of staging, and one sort batch's log pages and records,
//     each at most the sort budget and its page headers;
//   - the send buckets: per worker, the most sends it buffered in one wave,
//     and up to twice that after append's growth. A wave ends once its
//     out-edges reach waveSends, so a lane program that sends at most once
//     per lane and out-edge buffers at most lanes × (waveSends + the largest
//     out-degree) messages in one.
//
// The mlvc.slot_idle_bytes gauge counts what the stack holds; push and pop
// are the only places that move it.
var idle struct {
	mu   sync.Mutex
	sets []workingSet
}

// popIdle takes the set the latest run to finish left; with none left it
// returns an empty set.
func popIdle() workingSet {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	n := len(idle.sets)
	if n == 0 {
		return workingSet{}
	}
	ws := idle.sets[n-1]
	idle.sets[n-1] = workingSet{}
	idle.sets = idle.sets[:n-1]
	obsv.Live().SlotIdleBytes.Add(-ws.bytes())
	return ws
}

// pushIdle leaves ws for the next run.
func pushIdle(ws workingSet) {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	idle.sets = append(idle.sets, ws)
	obsv.Live().SlotIdleBytes.Add(ws.bytes())
}
