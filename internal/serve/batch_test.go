package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slotHold parks batch executions inside testBatchHook — each holding its
// execution slot — so a test decides what arrives while the slots are busy
// instead of racing a clock.
type slotHold struct {
	want atomic.Int32  // executions still to park
	held chan struct{} // one send per parked execution
	gate chan struct{} // closed by release
	once sync.Once
}

// installSlotHold hooks s (before it serves anything); park arms it.
func installSlotHold(s *Server) *slotHold {
	h := &slotHold{held: make(chan struct{}), gate: make(chan struct{})}
	s.testBatchHook = func(string, int) {
		if h.want.Add(-1) >= 0 {
			h.held <- struct{}{}
			<-h.gate
		}
	}
	return h
}

// park makes the next n batch executions stop in the hook, slots held.
func (h *slotHold) park(n int) { h.want.Store(int32(n)) }

// awaitParked returns once n executions are parked.
func (h *slotHold) awaitParked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-h.held:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d executions reached the hook", i, n)
		}
	}
}

// release lets every parked execution go on.
func (h *slotHold) release() { h.once.Do(func() { close(h.gate) }) }

// holdSlots occupies n execution slots with parked solo queries of the
// given kinds and returns once they are held; the queries finish, checked
// for a 200, after release.
func (h *slotHold) holdSlots(t *testing.T, url string, kinds ...string) *sync.WaitGroup {
	t.Helper()
	h.park(len(kinds))
	var holders sync.WaitGroup
	for i, kind := range kinds {
		holders.Add(1)
		go func(i int, kind string) {
			defer holders.Done()
			resp, data := postJSON(t, url+"/query/"+kind, pointRequest{Source: uint32(i), DeadlineMS: 60_000})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("slot-holding %s query: status %d: %s", kind, resp.StatusCode, data)
			}
		}(i, kind)
		// One at a time: each holder must find the previous one's dispatcher
		// gone, or it would ride along in that batch instead of taking a slot.
		h.awaitParked(t, 1)
	}
	return &holders
}

// waitPending returns once b holds exactly n queries waiting for a slot.
func waitPending(t *testing.T, b *batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		got := len(b.pending)
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d %s queries pending, want %d", got, b.kind, n)
		}
	}
}

// TestServeLoneQueryRunsAtOnce: on an idle daemon a query takes a slot and
// executes alone — nothing waits for company. The first query's execution
// has begun, with a batch of one, before the second query is even sent.
func TestServeLoneQueryRunsAtOnce(t *testing.T) {
	g := fixture(t, 23)
	s, err := New(Options{Graph: g, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan int)
	s.testBatchHook = func(_ string, n int) { started <- n }
	ts := httptest.NewServer(s)
	defer ts.Close()

	sizes := make([]int, 2)
	var clients sync.WaitGroup
	query := func(i int) {
		defer clients.Done()
		resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: uint32(3 + i), DeadlineMS: 30_000})
		var pr pointResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &pr) != nil {
			t.Errorf("query %d: status %d: %s", i, resp.StatusCode, data)
			return
		}
		sizes[i] = pr.BatchSize
		if pr.Timings.Total <= 0 || pr.Timings.Engine <= 0 || pr.Timings.Wait < 0 ||
			pr.Timings.Wait+pr.Timings.Engine > pr.Timings.Total {
			t.Errorf("query %d: timings %+v do not add up", i, pr.Timings)
		}
	}
	for i := range sizes {
		clients.Add(1)
		go query(i)
		select {
		case n := <-started:
			if n != 1 {
				t.Fatalf("query %d began executing in a batch of %d", i, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d never began executing", i)
		}
	}
	clients.Wait()
	if sizes[0] != 1 || sizes[1] != 1 {
		t.Fatalf("batch sizes %v, want [1 1]", sizes)
	}
}

// TestServeCloseDrainsParkedDispatcher: Close with queries pending behind a
// busy slot — their dispatcher parked waiting for it — sheds newcomers,
// still runs the pending ones, and returns only after the dispatcher and its
// execution are gone.
func TestServeCloseDrainsParkedDispatcher(t *testing.T) {
	g := fixture(t, 24)
	s, err := New(Options{Graph: g, MaxConcurrent: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	hold := installSlotHold(s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	holders := hold.holdSlots(t, ts.URL, "bfs")

	const waiters = 3
	sizes := make([]int, waiters)
	var clients sync.WaitGroup
	for i := 0; i < waiters; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: uint32(10 + i), DeadlineMS: 30_000})
			var pr pointResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &pr) != nil {
				t.Errorf("pending query %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			sizes[i] = pr.BatchSize
		}(i)
	}
	waitPending(t, s.bfs, waiters)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for !s.closed.Load() {
		time.Sleep(time.Millisecond)
	}
	resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 1})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, data) != "shutting_down" {
		t.Fatalf("query during drain: status %d body %s", resp.StatusCode, data)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with an execution parked and queries pending")
	default:
	}

	hold.release()
	<-closed
	holders.Wait()
	clients.Wait()
	for i, n := range sizes {
		if n != waiters {
			t.Fatalf("pending query %d ran in a batch of %d, want %d", i, n, waiters)
		}
	}
	s.bfs.mu.Lock()
	pending, dispatching := len(s.bfs.pending), s.bfs.dispatching
	s.bfs.mu.Unlock()
	if pending != 0 || dispatching {
		t.Fatalf("after Close: %d queries pending, dispatching %v", pending, dispatching)
	}
	if held := len(s.slots); held != 0 {
		t.Fatalf("after Close: %d execution slots still held", held)
	}
}
