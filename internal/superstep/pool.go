package superstep

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPanic is returned when a panic escapes a run — a vertex worker's
// Process call, or (for engines that contain it) any stage on the run
// goroutine. It is contained instead of killing the process, so a
// long-lived host (the serving daemon) survives a panicking program. The
// panic value is preserved in the wrapping message.
var ErrPanic = errors.New("superstep: panic during run")

// ForEach splits [0, n) into at most workers contiguous chunks and runs
// fn(w, lo, hi) for each on its own goroutine, returning after all of them
// finish. w < workers is the chunk's index, ascending with lo, so results
// buffered per w and read back in w order are in index order whatever the
// schedule. The first failure wins — an error fn returns or a panic it
// raises, the latter classified as ErrPanic — and the other chunks still
// run to completion.
func ForEach(workers, n int, fn func(w, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = max(1, min(workers, n))
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) { once.Do(func() { first = err }) }
	chunk := (n + workers - 1) / workers
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("%w: vertex worker: %v", ErrPanic, r))
				}
			}()
			if err := fn(w, lo, hi); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	return first
}
