package superstep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"multilogvc/internal/bitset"
	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, n - 1, n, n + 3} {
		hits := make([]atomic.Int32, n)
		var chunks atomic.Int32
		err := ForEach(workers, n, n*forkWork, func(w, lo, hi int) error {
			chunks.Add(1)
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: chunk index %d out of range", workers, w)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
		if c := int(chunks.Load()); c > workers || c > n {
			t.Fatalf("workers=%d: %d chunks", workers, c)
		}
	}
	if err := ForEach(4, 0, forkWork, func(int, int, int) error { t.Error("fn called for n = 0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// Chunk indices ascend with the index range, so per-chunk buffers read
// back in chunk order are in index order.
func TestForEachChunkOrder(t *testing.T) {
	const n, workers = 100, 7
	los := make([]int, workers)
	for i := range los {
		los[i] = -1
	}
	if err := ForEach(workers, n, n*forkWork, func(w, lo, hi int) error { los[w] = lo; return nil }); err != nil {
		t.Fatal(err)
	}
	prev := -1
	for w, lo := range los {
		if lo >= 0 && lo <= prev {
			t.Fatalf("chunk %d starts at %d, not after %d", w, lo, prev)
		}
		prev = max(prev, lo)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(4, 4, 4*forkWork, func(w, lo, hi int) error {
		ran.Add(1)
		if w == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("%d chunks ran, want all 4 to join", ran.Load())
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	var ran atomic.Int32
	for _, bad := range []int{0, 1} { // the caller's own chunk, and a spawned one
		ran.Store(0)
		err := ForEach(4, 8, 8*forkWork, func(w, lo, hi int) error {
			ran.Add(1)
			if w == bad {
				panic("injected")
			}
			return nil
		})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("panic in chunk %d: err = %v, want ErrPanic", bad, err)
		}
		if ran.Load() != 4 {
			t.Fatalf("panic in chunk %d: %d chunks ran, want the other workers to join", bad, ran.Load())
		}
	}
}

// goid returns the calling goroutine's id, read off its stack header.
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// Chunk 0 runs on the calling goroutine, so a pass that has a single chunk —
// one worker, one item, or less work than one forked worker must get —
// starts no goroutine at all; otherwise each chunk gets forkWork or more.
func TestForEachFirstChunkOnCaller(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ workers, n, work, chunks int }{
		{1, 100, 100 * forkWork, 1},
		{8, 1, forkWork, 1},
		{3, 3, 3 * forkWork, 3},
		{4, 100, 100 * forkWork, 4},
		{4, 100, 0, 1},
		{4, 100, forkWork - 1, 1},
		{4, 100, 2*forkWork - 1, 1},
		{2, 100, 3 * forkWork, 2},
		{4, 100, 3 * forkWork, 3},
		{8, 100, 3 * forkWork, 3},
	} {
		var chunks, onCaller atomic.Int32
		before := forks.Load()
		if err := ForEach(tc.workers, tc.n, tc.work, func(w, lo, hi int) error {
			chunks.Add(1)
			if goid() == caller {
				onCaller.Add(1)
				if w != 0 {
					t.Errorf("workers=%d n=%d work=%d: chunk %d ran on the caller", tc.workers, tc.n, tc.work, w)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if int(chunks.Load()) != tc.chunks || onCaller.Load() != 1 {
			t.Errorf("workers=%d n=%d work=%d: %d chunks, %d on the caller; want %d and 1",
				tc.workers, tc.n, tc.work, chunks.Load(), onCaller.Load(), tc.chunks)
		}
		if forked := forks.Load() - before; forked != uint64(min(1, tc.chunks-1)) {
			t.Errorf("workers=%d n=%d work=%d: %d forked waves counted for %d chunks",
				tc.workers, tc.n, tc.work, forked, tc.chunks)
		}
	}
}

func TestActiveSetAndMsgRanges(t *testing.T) {
	recs := []extsort.Record{{Dst: 3, Src: 9}, {Dst: 3, Src: 8}, {Dst: 5}, {Dst: 7}, {Dst: 7}, {Dst: 7}}
	live := bitset.New(16)
	for _, v := range []int{1, 5, 6, 12} { // 1 and 12 lie outside [2, 10)
		live.Set(v)
	}
	verts := ActiveSet(nil, recs, live, 2, 10)
	if want := []uint32{3, 5, 6, 7}; !slices.Equal(verts, want) {
		t.Fatalf("active = %v, want %v", verts, want)
	}
	ranges := MsgRanges(nil, verts, recs)
	if want := [][2]int{{0, 2}, {2, 3}, {3, 3}, {3, 6}}; !slices.Equal(ranges, want) {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	msgs := AppendMsgs(nil, recs[ranges[0][0]:ranges[0][1]])
	if want := []vc.Msg{{Src: 9}, {Src: 8}}; !slices.Equal(msgs, want) {
		t.Fatalf("msgs = %v, want %v", msgs, want)
	}
	if got := ActiveSet(nil, nil, bitset.New(4), 0, 4); len(got) != 0 {
		t.Fatalf("empty batch active = %v", got)
	}
}

func TestInitialActive(t *testing.T) {
	if got := InitialActive(vc.InitSet{All: true}, 70).Count(); got != 70 {
		t.Fatalf("All: %d live, want 70", got)
	}
	some := InitialActive(vc.InitSet{Verts: []uint32{2, 65}}, 70)
	if some.Count() != 2 || !some.Test(2) || !some.Test(65) {
		t.Fatalf("Verts: %d live", some.Count())
	}
}

// countdown is an Engine with work for a fixed number of supersteps.
type countdown struct {
	left   int
	ran    []int
	onStep func(step int)
}

func (c *countdown) Pending() bool { return c.left > 0 }
func (c *countdown) Superstep(_ context.Context, step int, ss *metrics.SuperstepStats) error {
	c.left--
	c.ran = append(c.ran, step)
	ss.Active = 10
	if c.onStep != nil {
		c.onStep(step)
	}
	return nil
}

func newLoop(t *testing.T, ctx context.Context, maxSteps int) *Loop {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 2})
	values, err := csr.CreateValuesFunc(dev, "v", 8, func(v uint32) uint32 { return v * 2 })
	if err != nil {
		t.Fatal(err)
	}
	loop := Begin(ctx, ssd.NewScope(), "fake", "app", "g")
	t.Cleanup(loop.End)
	loop.Values = values
	loop.MaxSupersteps = maxSteps
	return loop
}

func TestLoopStops(t *testing.T) {
	t.Run("convergence", func(t *testing.T) {
		eng := &countdown{left: 3}
		res, err := newLoop(t, context.Background(), 10).Run(eng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Report.Converged || !slices.Equal(eng.ran, []int{0, 1, 2}) {
			t.Fatalf("converged=%v ran=%v", res.Report.Converged, eng.ran)
		}
		if len(res.Report.Supersteps) != 3 || res.Values[3] != 6 {
			t.Fatalf("supersteps=%d values=%v", len(res.Report.Supersteps), res.Values)
		}
	})
	t.Run("cap", func(t *testing.T) {
		eng := &countdown{left: 5}
		res, err := newLoop(t, context.Background(), 2).Run(eng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Converged || !slices.Equal(eng.ran, []int{0, 1}) {
			t.Fatalf("converged=%v ran=%v", res.Report.Converged, eng.ran)
		}
	})
	t.Run("cap on the converging superstep", func(t *testing.T) {
		res, err := newLoop(t, context.Background(), 2).Run(&countdown{left: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Report.Converged {
			t.Fatal("run that drained its work on the last allowed superstep not reported converged")
		}
	})
	t.Run("StopAfter", func(t *testing.T) {
		eng := &countdown{left: 5}
		loop := newLoop(t, context.Background(), 10)
		var cums []uint64
		loop.StopAfter = func(step int, cum uint64) bool {
			cums = append(cums, cum)
			return step >= 1
		}
		res, err := loop.Run(eng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Converged || !slices.Equal(eng.ran, []int{0, 1}) || !slices.Equal(cums, []uint64{10, 20}) {
			t.Fatalf("converged=%v ran=%v cums=%v", res.Report.Converged, eng.ran, cums)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		eng := &countdown{left: 5, onStep: func(step int) {
			if step == 1 {
				cancel()
			}
		}}
		res, err := newLoop(t, ctx, 10).Run(eng)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("res=%v err=%v, want context.Canceled", res, err)
		}
		if !slices.Equal(eng.ran, []int{0, 1}) {
			t.Fatalf("ran=%v: superstep 2 must not start after the cancel", eng.ran)
		}
	})
	t.Run("resume", func(t *testing.T) {
		eng := &countdown{left: 2}
		loop := newLoop(t, context.Background(), 10)
		loop.StartStep, loop.CumProcessed = 4, 100
		if _, err := loop.Run(eng); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(eng.ran, []int{4, 5}) || loop.CumProcessed != 120 {
			t.Fatalf("ran=%v cum=%d", eng.ran, loop.CumProcessed)
		}
	})
}

func TestLoopHooks(t *testing.T) {
	var order []string
	eng := &countdown{left: 2, onStep: func(step int) { order = append(order, fmt.Sprint("step", step)) }}
	loop := newLoop(t, context.Background(), 10)
	loop.Boundary = func(_ context.Context, step int) error {
		order = append(order, fmt.Sprint("boundary", step))
		return nil
	}
	loop.AfterStep = func(step int, ss *metrics.SuperstepStats) error {
		order = append(order, fmt.Sprint("after", step))
		ss.Checkpoints = 1
		return nil
	}
	res, err := loop.Run(eng)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"boundary0", "step0", "after0", "boundary1", "step1", "after1"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if res.Report.Checkpoints != 2 {
		t.Fatalf("AfterStep's additions lost: %d checkpoints in the report", res.Report.Checkpoints)
	}

	stop := errors.New("stop here")
	eng = &countdown{left: 3}
	loop = newLoop(t, context.Background(), 10)
	loop.Boundary = func(_ context.Context, step int) error {
		if step == 1 {
			return stop
		}
		return nil
	}
	if _, err := loop.Run(eng); !errors.Is(err, stop) || !slices.Equal(eng.ran, []int{0}) {
		t.Fatalf("err=%v ran=%v, want the boundary error before superstep 1", err, eng.ran)
	}
}

// Drain hands over whole buckets in worker order — which, with ForEach's
// ascending chunks, is sender order — and leaves the buffer empty.
func TestSendBufferDrainsBucketsInOrder(t *testing.T) {
	sb := NewSendBuffer(3, 100)
	sb.Send(2, 20, 5, 0)
	sb.Send(0, 1, 7, 0)
	sb.Send(0, 2, 6, 0)
	sb.Send(2, 21, 4, 0)
	var got []uint32
	buckets := 0
	n, err := sb.Drain(func(recs []extsort.Record) (int, error) {
		buckets++
		for _, r := range recs {
			got = append(got, r.Src)
		}
		return len(recs), nil
	})
	if err != nil || n != 4 || buckets != 2 {
		t.Fatalf("drained %d sends in %d buckets, err %v; want 4 in 2 (the empty bucket is skipped)", n, buckets, err)
	}
	if want := []uint32{1, 2, 20, 21}; !slices.Equal(got, want) {
		t.Fatalf("senders in drain order %v, want %v", got, want)
	}
	if n, err := sb.Drain(func([]extsort.Record) (int, error) { t.Error("deliver called on an empty buffer"); return 0, nil }); n != 0 || err != nil {
		t.Fatalf("second drain: %d sends, err %v", n, err)
	}
}

// A send to a vertex the graph lacks ends the drain with ErrBadSend, after
// the sends before it were delivered and before any after it.
func TestSendBufferBadSend(t *testing.T) {
	sb := NewSendBuffer(2, 10)
	sb.Send(0, 1, 3, 0)
	sb.Send(0, 2, 10, 0) // vertex 10 does not exist
	sb.Send(0, 3, 4, 0)
	sb.Send(1, 4, 5, 0)
	var got []uint32
	n, err := sb.Drain(func(recs []extsort.Record) (int, error) {
		for _, r := range recs {
			got = append(got, r.Src)
		}
		return len(recs), nil
	})
	if !errors.Is(err, ErrBadSend) {
		t.Fatalf("err = %v, want ErrBadSend", err)
	}
	if n != 1 || !slices.Equal(got, []uint32{1}) {
		t.Fatalf("delivered %d sends from %v before the bad one, want 1 from [1]", n, got)
	}
}

// A deliver that fails part-way through a bucket is counted for what it
// consumed, so the total is exact on the error path too.
func TestSendBufferCountsPartialDelivery(t *testing.T) {
	sb := NewSendBuffer(2, 10)
	for i := uint32(0); i < 3; i++ {
		sb.Send(0, i, 1, 0)
		sb.Send(1, i, 2, 0)
	}
	boom := errors.New("boom")
	n, err := sb.Drain(func(recs []extsort.Record) (int, error) {
		if recs[0].Dst == 2 {
			return 2, boom
		}
		return len(recs), nil
	})
	if !errors.Is(err, boom) || n != 5 {
		t.Fatalf("drained %d sends, err %v; want 5 (3 + 2 of the failing bucket) and boom", n, err)
	}
}
