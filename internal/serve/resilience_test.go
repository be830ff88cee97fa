package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

// TestServeBatchFaultIsolation is the tentpole contract: a retryable
// device fault in a lane-batched execution must not fail the healthy
// companions. Corruption is armed only for the batch's scratch namespace
// (".q2." — the second RunTag this server issues, the first being the
// slot holder's), so the 2-lane batch dies of corrupt scratch while the
// solo re-runs (tags q3, q4) execute clean. Both clients still get 200s, solo-sized, marked isolated, and
// bit-identical to sequential single-source runs.
func TestServeBatchFaultIsolation(t *testing.T) {
	g := fixture(t, 91)
	dev := g.Device()
	sources := []uint32{3, 7}
	want := make([][]uint32, len(sources))
	for i, src := range sources {
		want[i] = single(t, g, "bfs", src)
	}
	dev.SetFaults(ssd.FaultPlan{Seed: 42, Corrupt: ssd.Trigger{Prob: 1}, CorruptOnly: ".q2."})

	s, err := New(Options{Graph: g, MaxConcurrent: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hold := installSlotHold(s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	holders := hold.holdSlots(t, ts.URL, "bfs")

	live := obsv.Live()
	isolated0 := live.QueriesIsolated.Value()
	retried0 := live.QueriesRetried.Value()

	type reply struct {
		resp pointResponse
		code int
		body []byte
	}
	replies := make([]reply, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src uint32) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/query/bfs",
				pointRequest{Source: src, Values: true, DeadlineMS: 30_000})
			replies[i] = reply{code: resp.StatusCode, body: data}
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(data, &replies[i].resp); err != nil {
					t.Error(err)
				}
			}
		}(i, src)
	}
	waitPending(t, s.bfs, len(sources))
	hold.release()
	wg.Wait()
	holders.Wait()

	for i := range sources {
		r := replies[i]
		if r.code != http.StatusOK {
			t.Fatalf("query %d: status %d (companion not isolated from the batch fault): %s",
				i, r.code, r.body)
		}
		if !r.resp.Isolated {
			t.Fatalf("query %d not marked isolated; batch_size %d", i, r.resp.BatchSize)
		}
		if r.resp.BatchSize != 1 {
			t.Fatalf("query %d: solo re-run reports batch_size %d, want 1", i, r.resp.BatchSize)
		}
		for v := range want[i] {
			if r.resp.AllValues[v] != want[i][v] {
				t.Fatalf("query %d vertex %d: isolated result %d != sequential %d",
					i, v, r.resp.AllValues[v], want[i][v])
			}
		}
	}
	if d := live.QueriesIsolated.Value() - isolated0; d != 2 {
		t.Fatalf("queries_isolated advanced by %d, want 2", d)
	}
	if d := live.QueriesRetried.Value() - retried0; d != 2 {
		t.Fatalf("queries_retried advanced by %d, want 2", d)
	}
	// The faulted batch's scratch and the solo runs' scratch are all gone.
	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.q") {
			t.Fatalf("scratch file %q survived isolation", name)
		}
	}
}

// TestServeWalkFaultPaths drives /walk (and the no-space path via
// /query/bfs, since walks never write) through every injected device
// fault family and asserts the classified code, status, Retry-After, and
// recovery after disarming. Corruption runs last: injected flips are
// sticky on the stored adjacency, so nothing is asserted after it.
func TestServeWalkFaultPaths(t *testing.T) {
	g := fixture(t, 92)
	dev := g.Device()
	s, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	walkReq := walkRequest{Source: 3, Walks: 4, Length: 8, Seed: 7}
	if resp, data := postJSON(t, ts.URL+"/walk", walkReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline walk: %d %s", resp.StatusCode, data)
	}

	// Transient storm past the retry budget: classified device_fault.
	dev.SetFaults(ssd.FaultPlan{Seed: 11, Transient: ssd.Trigger{Prob: 1}})
	resp, data := postJSON(t, ts.URL+"/walk", walkReq)
	if resp.StatusCode != http.StatusInternalServerError || errCode(t, data) != "device_fault" {
		t.Fatalf("transient storm: status %d body %s", resp.StatusCode, data)
	}
	dev.SetFaults(ssd.FaultPlan{})
	if resp, data := postJSON(t, ts.URL+"/walk", walkReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("walk after transient disarm: %d %s", resp.StatusCode, data)
	}

	// No-space hits query scratch growth (walks are read-only): 507 with
	// the slower reclamation Retry-After.
	dev.SetFaults(ssd.FaultPlan{Seed: 13, NoSpace: ssd.Trigger{Prob: 1}})
	resp, data = postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 3, DeadlineMS: 30_000})
	if resp.StatusCode != http.StatusInsufficientStorage || errCode(t, data) != "no_space" {
		t.Fatalf("no-space: status %d body %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("no-space Retry-After %q, want 5", ra)
	}
	dev.SetFaults(ssd.FaultPlan{})
	if resp, data := postJSON(t, ts.URL+"/query/bfs",
		pointRequest{Source: 3, DeadlineMS: 30_000}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after no-space disarm: %d %s", resp.StatusCode, data)
	}

	// Corruption on the adjacency itself (sticky; keep last).
	dev.SetFaults(ssd.FaultPlan{Seed: 17, Corrupt: ssd.Trigger{Prob: 1}})
	resp, data = postJSON(t, ts.URL+"/walk", walkRequest{Source: 200, Walks: 2, Length: 4})
	if resp.StatusCode != http.StatusInternalServerError || errCode(t, data) != "corrupt" {
		t.Fatalf("corrupt: status %d body %s", resp.StatusCode, data)
	}
}

// TestServeFaultEndpoint covers POST /debug/fault end to end: absent
// without FaultControl, POST only, a malformed or oversized spec refused
// with the device left exactly as it was (healthy stays healthy, armed
// stays armed — never a silent idle plan), a valid spec arming the device
// the next query reads, and the empty body healing it.
func TestServeFaultEndpoint(t *testing.T) {
	g := fixture(t, 94)
	post := func(base, spec string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/debug/fault", "text/plain", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	walkReq := walkRequest{Source: 3, Walks: 4, Length: 8, Seed: 7}

	off, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	tsOff := httptest.NewServer(off)
	if status, _ := post(tsOff.URL, "transient=1"); status != http.StatusNotFound {
		t.Fatalf("without FaultControl: status %d, want 404", status)
	}
	tsOff.Close()
	off.Close()

	s, err := New(Options{Graph: g, FaultControl: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	walk := func(wantStatus int, wantCode, when string) {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/walk", walkReq)
		if resp.StatusCode != wantStatus || (wantCode != "" && errCode(t, data) != wantCode) {
			t.Fatalf("walk %s: status %d body %s, want %d %s", when, resp.StatusCode, data, wantStatus, wantCode)
		}
	}
	refused := func(spec, when string) {
		t.Helper()
		if status, data := post(ts.URL, spec); status != http.StatusBadRequest || errCode(t, data) != "bad_request" {
			t.Fatalf("%s: status %d body %s, want 400 bad_request", when, status, data)
		}
	}

	if resp, err := http.Get(ts.URL + "/debug/fault"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}

	refused("transient=90%", "malformed spec on a healthy device")
	walk(http.StatusOK, "", "after a refused spec")

	if status, data := post(ts.URL, "transient=1"); status != http.StatusOK {
		t.Fatalf("arm: status %d body %s", status, data)
	}
	walk(http.StatusInternalServerError, "device_fault", "after transient=1")

	refused("bogus=1", "malformed spec on an armed device")
	refused("transient=0"+strings.Repeat(" ", maxFaultSpec), "oversized body")
	walk(http.StatusInternalServerError, "device_fault", "after refused specs on an armed device")

	if status, data := post(ts.URL, ""); status != http.StatusOK {
		t.Fatalf("heal: status %d body %s", status, data)
	}
	walk(http.StatusOK, "", "after the empty-body heal")
}

// TestServeFastFailExpiredBatch: a batch whose every member deadline
// expired while it waited for a busy slot is cut before the engine — a
// classified 504 with no execution run for it.
func TestServeFastFailExpiredBatch(t *testing.T) {
	g := fixture(t, 93)
	s, err := New(Options{Graph: g, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hold := installSlotHold(s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	holders := hold.holdSlots(t, ts.URL, "bfs")

	live := obsv.Live()
	batches0 := live.BatchesRun.Value()

	// Deadline (30ms) is alive at admission but dead once the slot frees.
	type reply struct {
		status int
		data   []byte
	}
	replied := make(chan reply, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 5, DeadlineMS: 30})
		replied <- reply{resp.StatusCode, data}
	}()
	waitPending(t, s.bfs, 1)
	time.Sleep(40 * time.Millisecond) // outlive the deadline
	hold.release()
	holders.Wait()
	if r := <-replied; r.status != http.StatusGatewayTimeout || errCode(t, r.data) != "deadline" {
		t.Fatalf("fast-fail: status %d body %s", r.status, r.data)
	}
	// Only the slot holder's execution ran.
	if d := live.BatchesRun.Value() - batches0; d != 1 {
		t.Fatalf("%d executions ran, want 1 (the slot holder's; none for the expired batch)", d)
	}
}

// TestServePanicContainmentBatch: a panic inside a batch execution is
// contained at the goroutine boundary — the client gets a structured 500
// internal, the panic is counted, and the daemon keeps serving correct
// results afterwards with no scratch leak.
func TestServePanicContainmentBatch(t *testing.T) {
	g := fixture(t, 94)
	dev := g.Device()
	cache := pagecache.NewSharded(128, dev.PageSize(), 4)
	dev.AttachCache(cache)
	want := single(t, g, "bfs", 12)

	s, err := New(Options{Graph: g, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var arm atomic.Bool
	arm.Store(true)
	s.testBatchHook = func(kind string, n int) {
		if arm.Load() {
			panic("injected batch panic")
		}
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	live := obsv.Live()
	panics0 := live.PanicsRecovered.Value()

	resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 12, DeadlineMS: 30_000})
	if resp.StatusCode != http.StatusInternalServerError || errCode(t, data) != "internal" {
		t.Fatalf("panicked batch: status %d body %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "panic in batch execution") {
		t.Fatalf("panic not surfaced in the error message: %s", data)
	}
	if d := live.PanicsRecovered.Value() - panics0; d != 1 {
		t.Fatalf("panics_recovered advanced by %d, want 1", d)
	}

	// Disarm and prove the daemon survived with clean shared state.
	arm.Store(false)
	resp, data = postJSON(t, ts.URL+"/query/bfs",
		pointRequest{Source: 12, Values: true, DeadlineMS: 30_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after contained panic: %d %s", resp.StatusCode, data)
	}
	var pr pointResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if pr.AllValues[v] != want[v] {
			t.Fatalf("post-panic vertex %d: %d != %d", v, pr.AllValues[v], want[v])
		}
	}
	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.q") {
			t.Fatalf("scratch file %q survived the contained panic", name)
		}
	}
}

// TestServePanicContainmentHandler: a panic in an HTTP handler is caught
// by the ServeHTTP middleware and mapped to the same structured internal
// error — the daemon answers the next request normally.
func TestServePanicContainmentHandler(t *testing.T) {
	g := fixture(t, 95)
	s, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mux.HandleFunc("/__panic", func(w http.ResponseWriter, r *http.Request) {
		panic("injected handler panic")
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	live := obsv.Live()
	panics0 := live.PanicsRecovered.Value()

	resp, err := http.Get(ts.URL + "/__panic")
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || body.Error.Code != "internal" {
		t.Fatalf("panicked handler: status %d code %q", resp.StatusCode, body.Error.Code)
	}
	if d := live.PanicsRecovered.Value() - panics0; d != 1 {
		t.Fatalf("panics_recovered advanced by %d, want 1", d)
	}
	if resp, data := postJSON(t, ts.URL+"/query/bfs",
		pointRequest{Source: 1, DeadlineMS: 30_000}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after handler panic: %d %s", resp.StatusCode, data)
	}
}

// TestServeBreakerTripsAndRecovers is the health-model end-to-end: under
// a sustained transient storm the breaker opens (readiness flips, new
// queries shed with 503 + Retry-After), and once the device heals the
// half-open probes close it again and readiness returns.
func TestServeBreakerTripsAndRecovers(t *testing.T) {
	g := fixture(t, 96)
	dev := g.Device()
	s, err := New(Options{
		Graph:             g,
		BreakerWindow:     8,
		BreakerThreshold:  0.5,
		BreakerMinSamples: 2,
		BreakerCooldown:   300 * time.Millisecond,
		BreakerProbes:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	live := obsv.Live()
	opens0 := live.BreakerOpens.Value()
	sheds0 := live.BreakerSheds.Value()

	readyz := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Reason string `json:"reason"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Reason
	}
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("fresh server readyz %d, want 200", code)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Sustained device faults: two classified failures trip the breaker.
	dev.SetFaults(ssd.FaultPlan{Seed: 23, Transient: ssd.Trigger{Prob: 1}})
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 2, DeadlineMS: 30_000})
		if resp.StatusCode != http.StatusInternalServerError || errCode(t, data) != "device_fault" {
			t.Fatalf("storm query %d: status %d body %s", i, resp.StatusCode, data)
		}
	}
	if d := live.BreakerOpens.Value() - opens0; d != 1 {
		t.Fatalf("breaker_opens advanced by %d, want 1", d)
	}
	if code, reason := readyz(); code != http.StatusServiceUnavailable || reason != "breaker_open" {
		t.Fatalf("readyz while open: %d %q", code, reason)
	}

	// Open breaker sheds with breaker_open and a Retry-After bound.
	resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 2, DeadlineMS: 30_000})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, data) != "breaker_open" {
		t.Fatalf("shed query: status %d body %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("breaker shed without a Retry-After header")
	}
	if d := live.BreakerSheds.Value() - sheds0; d < 1 {
		t.Fatalf("breaker_sheds advanced by %d, want >= 1", d)
	}

	// /stats reflects the health model while shedding.
	{
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Breaker  breakerSnapshot `json:"breaker"`
			Brownout bool            `json:"brownout"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Breaker.State != breakerOpen || !stats.Brownout {
			t.Fatalf("stats while open: breaker=%+v brownout=%v", stats.Breaker, stats.Brownout)
		}
	}

	// Device heals; after the cooldown the half-open probe succeeds and
	// closes the breaker.
	dev.SetFaults(ssd.FaultPlan{})
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		resp, _ := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 2, DeadlineMS: 30_000})
		if resp.StatusCode == http.StatusOK {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("no query succeeded within 10s of the device healing")
	}
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("readyz after recovery %d, want 200", code)
	}
}
