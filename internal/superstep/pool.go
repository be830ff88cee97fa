package superstep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"multilogvc/internal/vc"
)

// ErrPanic is returned when a panic escapes a run — a vertex worker's
// Process call, or (for engines that contain it) any stage on the run
// goroutine. It is contained instead of killing the process, so a
// long-lived host (the serving daemon) survives a panicking program. The
// panic value is preserved in the wrapping message.
var ErrPanic = errors.New("superstep: panic during run")

// forkWork is the least work, in units of one message in or one send out,
// that a forked worker must receive: a wave runs work/forkWork chunks, at
// most workers and at most one per item. Its two inputs, measured on a
// 2-vCPU Intel Xeon (nproc 2, go1.24):
//   - a fork/join to an idle pool costs ≈3.9 µs (BenchmarkForEachFork:
//     forked 3,770–4,125 ns/wave, inline 81–102 ns/wave);
//   - a unit of vertex work costs ≈13 ns (BenchmarkVertexStage: 12.7–13.2
//     ns/unit).
//
// Ten times the fork cost is ≈3,000 units; forkWork is the next power of
// two, so a forked worker's share, ≥53 µs, is ≥13 times what forking it costs.
const forkWork = 4096

// forks counts the waves that started goroutines, so tests can tell that a
// worker-parity run exercised the forked path.
var forks atomic.Uint64

// ForEach splits [0, n) into contiguous chunks and runs fn(w, lo, hi) for
// each — the first on the calling goroutine, the others on goroutines of
// their own — returning after all of them finish. work is the pass's
// expected work (messages in plus sends out): it forks only as many chunks
// as each get forkWork of it, at most workers and at most n, so a pass too
// small to share runs on the caller alone and starts no goroutine. w <
// workers is the chunk's index, ascending with lo, so results buffered per w
// and read back in w order are in index order whatever the schedule. The
// first failure wins — an error fn returns or a panic it raises, the latter
// classified as ErrPanic — and the other chunks still run to completion.
func ForEach(workers, n, work int, fn func(w, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = max(1, min(workers, n, work/forkWork))
	chunk := (n + workers - 1) / workers
	if chunk >= n {
		return runChunk(fn, 0, 0, n)
	}
	forks.Add(1)
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) { once.Do(func() { first = err }) }
	for w := 1; w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runChunk(fn, w, w*chunk, min((w+1)*chunk, n)); err != nil {
				fail(err)
			}
		}()
	}
	if err := runChunk(fn, 0, 0, chunk); err != nil {
		fail(err)
	}
	wg.Wait()
	return first
}

// runChunk runs fn(w, lo, hi), returning a panic it raises as ErrPanic.
func runChunk(fn func(w, lo, hi int) error, w, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: vertex worker: %v", ErrPanic, r)
		}
	}()
	return fn(w, lo, hi)
}

// ErrBadSend is returned when a program sends to a vertex the graph lacks.
var ErrBadSend = errors.New("superstep: message to a vertex that does not exist")

// SendBuffer is the one way a message leaves vertex processing in any
// engine: during a ForEach pass worker w Sends into bucket w, and once the
// pool has joined the run goroutine Drains the buckets into the engine's
// log. Chunks ascend with w and each worker walks its chunk in order, so the
// drain sees sends in sender order whatever the goroutine schedule — and so
// does everything that depends on append order: eviction batches,
// external-sort run boundaries, virtual device time.
type SendBuffer struct {
	numVertices uint32
	buckets     [][]vc.Msg // capacity survives Drain
}

// NewSendBuffer makes the buffer of a workers-wide pool over numVertices vertices.
func NewSendBuffer(workers int, numVertices uint32) *SendBuffer {
	return &SendBuffer{numVertices: numVertices, buckets: make([][]vc.Msg, workers)}
}

// Reuse returns b ready for a workers-wide pool over numVertices vertices,
// its buckets' room kept; a nil b, or one of another width, gives a new
// buffer. b must hold no undrained send: a Drain that failed leaves some.
func (b *SendBuffer) Reuse(workers int, numVertices uint32) *SendBuffer {
	if b == nil || len(b.buckets) != workers {
		return NewSendBuffer(workers, numVertices)
	}
	b.numVertices = numVertices
	return b
}

// Bytes returns the memory the buckets hold on to between passes.
func (b *SendBuffer) Bytes() int {
	n := 0
	for _, bucket := range b.buckets {
		n += cap(bucket)
	}
	return 12 * n // a vc.Msg is three uint32
}

// Send files the message <dst, src, data> in worker w's bucket; workers
// share nothing, so it needs no synchronisation.
func (b *SendBuffer) Send(w int, src, dst, data uint32) {
	b.buckets[w] = append(b.buckets[w], vc.Msg{Dst: dst, Src: src, Data: data})
}

// Drain hands deliver each worker's buffered sends, a bucket at a time and
// so in sender order, and empties the buffer. deliver returns how many of the
// records it was handed it consumed — all of them unless it fails — and Drain
// returns their sum: exactly the sends that reached the engine's log, on the
// error path too. It stops at the first bucket deliver fails on or the first
// send whose destination is not a vertex (ErrBadSend), having delivered the
// sends before it. deliver must not keep the slice.
func (b *SendBuffer) Drain(deliver func([]vc.Msg) (int, error)) (uint64, error) {
	var n uint64
	for w, bucket := range b.buckets {
		b.buckets[w] = bucket[:0]
		var bad error
		for i, rec := range bucket {
			if rec.Dst >= b.numVertices {
				bad = fmt.Errorf("%w: vertex %d sent to %d, the graph has vertices 0..%d",
					ErrBadSend, rec.Src, rec.Dst, b.numVertices-1)
				bucket = bucket[:i]
				break
			}
		}
		if len(bucket) > 0 {
			done, err := deliver(bucket)
			n += uint64(done)
			if err != nil {
				return n, err
			}
		}
		if bad != nil {
			return n, bad
		}
	}
	return n, nil
}
