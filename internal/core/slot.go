package core

import (
	"sync"

	"multilogvc/internal/mlog"
	"multilogvc/internal/superstep"
)

// Slot is the engine working set of one execution slot of a long-lived host:
// the serving daemon runs one engine execution at a time on each of its
// slots and hands the slot's working set to every run (Config.Slot). A run
// takes the buffers at open and gives them back at close, but only when it
// ended without error; a run that fails, panics or misses its deadline drops
// them, so the slot starts cold and nothing a failed run left in a buffer
// reaches another. A run without a Slot allocates them and lets them die
// with it.
//
// The buffers are the vertex plane, the send buckets with the worker
// contexts, and the multi-log buffers, which also carry the sort's records
// and scratch. Each is sized by the largest batch or wave a run on the slot
// has needed, so between runs a slot holds at most, as a function of the
// graph and the configuration (lanes the most any of its programs had):
//   - the vertex plane: what a batch over every interval holds — every
//     vertex active with its lanes' values, every out-edge decoded — and a
//     quarter more, the arena's growth step; a run on a slot does not drop
//     an outsized plane (run.planeKeep) after a batch, because the serving
//     shape's fused batches outgrow it in nearly every run;
//   - the multi-log buffers: the pages of one generation (the log budget
//     plus one page per interval and one more; twice that in the
//     asynchronous model), at most 64 pages of staging, and two record
//     buffers of at most the sort budget each;
//   - the send buckets: per worker, the most sends it buffered in one wave,
//     and up to twice that after append's growth. A wave ends once its
//     out-edges reach waveSends, so a lane program that sends at most once
//     per lane and out-edge buffers at most lanes × (waveSends + the largest
//     out-degree) messages in one.
//
// The zero Slot is an empty working set. A Slot is safe for concurrent use,
// but a run that finds it taken runs without it.
type Slot struct {
	mu    sync.Mutex
	taken bool
	ws    workingSet
}

// workingSet is the part of a run that its Slot carries to the next run.
type workingSet struct {
	vertexPlane // the vertex data of the batch in progress

	// The vertex stage's send path: workers fill sends, the run goroutine
	// drains it into the logs after every wave.
	ctxs    []engineCtx // one per worker
	sends   *superstep.SendBuffer
	sendIvs []int32 // destination interval of each send of the bucket being drained

	logBufs *mlog.Buffers // the buffers both message-log generations draw on
}

// Bytes returns the memory the slot holds for its next run: zero while a run
// has its working set out, and after a failed run.
func (s *Slot) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := &s.ws
	n := ws.vertexPlane.bytes() + 4*cap(ws.sendIvs)
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

// Release drops the working set: the slot's next run starts cold.
func (s *Slot) Release() {
	s.mu.Lock()
	s.ws = workingSet{}
	s.mu.Unlock()
}

// take moves the working set out of s and reports whether the caller now
// holds s; a nil or taken s gives an empty set and false.
func (s *Slot) take() (workingSet, bool) {
	if s == nil {
		return workingSet{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taken {
		return workingSet{}, false
	}
	ws := s.ws
	s.ws, s.taken = workingSet{}, true
	return ws, true
}

// give is the holder's hand-back: ws is kept when the run ended without
// error and dropped otherwise, and s is free for the next run.
func (s *Slot) give(ws workingSet, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.ws = ws
	}
	s.taken = false
}
