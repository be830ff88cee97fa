package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// fixture builds a small resident rmat graph on a fresh in-memory device.
func fixture(t *testing.T, seed int64) *csr.Graph {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: 1 << 9, IntervalBudget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// weightedFixture is fixture with a deterministic weight in [1, 16] on
// every edge, so weighted and hop distances differ.
func weightedFixture(t *testing.T, seed int64) *csr.Graph {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	wedges := graphio.AttachWeights(edges, func(s, d uint32) uint32 {
		return uint32(vc.Hash64(uint64(s), uint64(d))%16) + 1
	})
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	g, err := csr.BuildWeighted(dev, "g", wedges, csr.BuildOptions{NumVertices: 1 << 9, IntervalBudget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// single runs the reference single-source program sequentially.
func single(t *testing.T, g *csr.Graph, kind string, src uint32) []uint32 {
	t.Helper()
	var res *superstep.Result
	var err error
	if kind == "bfs" {
		res, err = core.New(g, core.Config{MaxSupersteps: 100}).Run(&apps.BFS{Source: src})
	} else {
		res, err = core.New(g, core.Config{MaxSupersteps: 100}).Run(&apps.SSSP{Source: src})
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func errCode(t *testing.T, data []byte) string {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("not an error body: %s", data)
	}
	return e.Error.Code
}

// TestServeBatchingParity drives K concurrent BFS queries through the
// HTTP API while the only execution slot is busy, so they share the next
// execution, and asserts each client's full value array is bit-identical
// to its own sequential single-source run — the daemon's batching
// contract, verified end to end.
func TestServeBatchingParity(t *testing.T) {
	g := fixture(t, 21)
	sources := []uint32{3, 7, 100, 400}
	want := make([][]uint32, len(sources))
	for i, src := range sources {
		want[i] = single(t, g, "bfs", src)
	}

	s, err := New(Options{Graph: g, MaxConcurrent: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hold := installSlotHold(s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	holders := hold.holdSlots(t, ts.URL, "bfs")

	type reply struct {
		resp pointResponse
		code int
	}
	replies := make([]reply, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src uint32) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/query/bfs",
				pointRequest{Source: src, Values: true, DeadlineMS: 30_000})
			replies[i].code = resp.StatusCode
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
			t.Fatalf("query %d: status %d", i, r.code)
		}
		if len(r.resp.AllValues) != len(want[i]) {
			t.Fatalf("query %d: %d values, want %d", i, len(r.resp.AllValues), len(want[i]))
		}
		for v := range want[i] {
			if r.resp.AllValues[v] != want[i][v] {
				t.Fatalf("query %d vertex %d: served %d != sequential %d",
					i, v, r.resp.AllValues[v], want[i][v])
			}
		}
	}
	// All four waited for the same slot: they must have shared a batch.
	for i := range sources {
		if replies[i].resp.BatchSize != len(sources) {
			t.Fatalf("query %d ran in a batch of %d, want %d", i, replies[i].resp.BatchSize, len(sources))
		}
	}
}

// TestServeSSSPTargets checks the targets projection against a
// sequential SSSP run.
func TestServeSSSPTargets(t *testing.T) {
	g := fixture(t, 5)
	want := single(t, g, "sssp", 9)

	s, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	targets := []uint32{0, 9, 77, 500}
	resp, data := postJSON(t, ts.URL+"/query/sssp",
		pointRequest{Source: 9, Targets: targets, DeadlineMS: 30_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr pointResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	for _, tv := range targets {
		if got := pr.Dist[fmt.Sprint(tv)]; got != want[tv] {
			t.Fatalf("target %d: served %d != sequential %d", tv, got, want[tv])
		}
	}
	if pr.AllValues != nil {
		t.Fatal("full values returned without being requested")
	}
}

// TestServeDeadlineShedClean is the governance contract: a query whose
// deadline expires mid-batch gets a classified 504, leaves zero scratch
// files, and the very next query computes correctly — a shed query must
// not poison the shared state.
func TestServeDeadlineShedClean(t *testing.T) {
	g := fixture(t, 33)
	dev := g.Device()
	cache := pagecache.NewSharded(128, dev.PageSize(), 4)
	dev.AttachCache(cache)
	want := single(t, g, "bfs", 12)

	// The first execution dawdles past its query's 1ms deadline after
	// taking its slot, so the engine starts under an expired context and
	// sheds at its first boundary check, classified as a deadline.
	s, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dawdled atomic.Bool
	s.testBatchHook = func(string, int) {
		if dawdled.CompareAndSwap(false, true) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 12, DeadlineMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	if code := errCode(t, data); code != "deadline" {
		t.Fatalf("error code %q, want deadline", code)
	}

	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.q") {
			t.Fatalf("shed query left scratch file %q", name)
		}
	}

	// The daemon must still serve correct results afterwards.
	resp, data = postJSON(t, ts.URL+"/query/bfs",
		pointRequest{Source: 12, Values: true, DeadlineMS: 30_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", resp.StatusCode, data)
	}
	var pr pointResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if pr.AllValues[v] != want[v] {
			t.Fatalf("follow-up vertex %d: %d != %d", v, pr.AllValues[v], want[v])
		}
	}
}

// TestServeAdmission covers the structured-rejection paths: malformed
// queries, out-of-range sources, queue overflow, and draining.
func TestServeAdmission(t *testing.T) {
	g := fixture(t, 44)
	s, err := New(Options{Graph: g, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	hold := installSlotHold(s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 1 << 20})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != "bad_request" {
		t.Fatalf("out-of-range source: status %d code %s", resp.StatusCode, data)
	}
	resp, _ = http.Post(ts.URL+"/query/bfs", "application/json", strings.NewReader("{nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Expired before admission: shed as a deadline without costing IO.
	resp, data = postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 1, DeadlineMS: -1})
	if resp.StatusCode != http.StatusOK { // -1 means "use default", not expired
		t.Fatalf("negative deadline should fall back to default: %d %s", resp.StatusCode, data)
	}

	// Queue overflow: with MaxQueue=1, while a first query's execution is
	// parked the second is shed.
	holders := hold.holdSlots(t, ts.URL, "bfs")
	resp, data = postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 3})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, data) != "overloaded" {
		t.Fatalf("overflow: status %d body %s", resp.StatusCode, data)
	}
	hold.release()
	holders.Wait()

	// Draining: queries after Close are shed with shutting_down.
	s.Close()
	resp, data = postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 1})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, data) != "shutting_down" {
		t.Fatalf("draining: status %d body %s", resp.StatusCode, data)
	}
}

// TestServeConcurrentMixed hammers the daemon with concurrent BFS and
// SSSP queries that pile up behind three busy slots and then run as
// several batches at once — under -race this is the shared
// cache/device/scope interference audit at the HTTP layer.
func TestServeConcurrentMixed(t *testing.T) {
	g := fixture(t, 55)
	dev := g.Device()
	cache := pagecache.NewSharded(128, dev.PageSize(), 4)
	dev.AttachCache(cache)

	kinds := []string{"bfs", "sssp", "bfs", "sssp", "bfs", "bfs", "sssp", "bfs"}
	sources := []uint32{1, 1, 42, 42, 300, 77, 300, 5}
	want := make([][]uint32, len(kinds))
	for i := range kinds {
		want[i] = single(t, g, kinds[i], sources[i])
	}

	s, err := New(Options{Graph: g, MaxBatch: 4, MaxConcurrent: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hold := installSlotHold(s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	holders := hold.holdSlots(t, ts.URL, "bfs", "sssp", "bfs")

	var wg sync.WaitGroup
	for i := range kinds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/query/"+kinds[i],
				pointRequest{Source: sources[i], Values: true, DeadlineMS: 60_000})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var pr pointResponse
			if err := json.Unmarshal(data, &pr); err != nil {
				t.Error(err)
				return
			}
			for v := range want[i] {
				if pr.AllValues[v] != want[i][v] {
					t.Errorf("query %d (%s from %d) vertex %d: %d != %d",
						i, kinds[i], sources[i], v, pr.AllValues[v], want[i][v])
					return
				}
			}
		}(i)
	}
	// Five BFS queries (a batch of four and one of one) and three SSSP are
	// pending; freeing the three slots runs the three batches together.
	waitPending(t, s.bfs, 5)
	waitPending(t, s.sssp, 3)
	hold.release()
	wg.Wait()
	holders.Wait()

	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.q") {
			t.Fatalf("scratch file %q survived", name)
		}
	}
}

// TestServeWalkDeterministic checks that walk batches are reproducible
// and structurally valid.
func TestServeWalkDeterministic(t *testing.T) {
	g := fixture(t, 66)
	s, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := walkRequest{Source: 3, Walks: 4, Length: 8, Seed: 99}
	var got [2]walkResponse
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/walk", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got[0].Paths) != 4 {
		t.Fatalf("%d paths, want 4", len(got[0].Paths))
	}
	for wi, p := range got[0].Paths {
		if p[0] != 3 {
			t.Fatalf("walk %d starts at %d, want 3", wi, p[0])
		}
		if len(p) > 9 {
			t.Fatalf("walk %d has %d hops, cap is 8", wi, len(p)-1)
		}
		other := got[1].Paths[wi]
		if len(p) != len(other) {
			t.Fatalf("walk %d not deterministic: lengths %d vs %d", wi, len(p), len(other))
		}
		for j := range p {
			if p[j] != other[j] {
				t.Fatalf("walk %d hop %d: %d vs %d", wi, j, p[j], other[j])
			}
		}
	}

	resp, data := postJSON(t, ts.URL+"/walk", walkRequest{Source: 3, Walks: 1000})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != "bad_request" {
		t.Fatalf("oversized walk batch: status %d body %s", resp.StatusCode, data)
	}
}

// TestServeWalkAdmission: /walk passes the point queries' admission while
// one parked query holds an execution slot. A walk arriving at the full
// queue is shed 503 overloaded; a walk waiting for a slot gives up 504 at
// its deadline, and gives its queue place back when its client leaves.
func TestServeWalkAdmission(t *testing.T) {
	g := fixture(t, 66)
	// serve starts a daemon whose only queued query holds one of its slots.
	serve := func(maxConcurrent, maxQueue int) (*Server, string) {
		s, err := New(Options{Graph: g, MaxConcurrent: maxConcurrent, MaxQueue: maxQueue})
		if err != nil {
			t.Fatal(err)
		}
		hold := installSlotHold(s)
		ts := httptest.NewServer(s)
		holders := hold.holdSlots(t, ts.URL, "bfs")
		t.Cleanup(func() {
			hold.release()
			holders.Wait()
			ts.Close()
			s.Close()
		})
		return s, ts.URL
	}
	// walk posts a walk and returns its status and error code, or the
	// transport error in place of the code.
	walk := func(ctx context.Context, url string, deadlineMS int64) (int, string) {
		buf, _ := json.Marshal(walkRequest{Source: 3, Walks: 2, Length: 4, DeadlineMS: deadlineMS})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/walk", bytes.NewReader(buf))
		resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error.Code
	}

	_, url := serve(2, 1) // a free slot, a full queue
	if status, code := walk(context.Background(), url, 0); status != http.StatusServiceUnavailable || code != "overloaded" {
		t.Errorf("walk at a full queue: status %d code %q, want 503 overloaded", status, code)
	}

	_, url = serve(1, 4) // room in the queue, no free slot
	if status, code := walk(context.Background(), url, 50); status != http.StatusGatewayTimeout || code != "deadline" {
		t.Errorf("walk waiting past its deadline: status %d code %q, want 504 deadline", status, code)
	}

	s, url := serve(1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go walk(ctx, url, 60_000)
	waitQueued := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); s.queued.Load() != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d queries queued, want %d", s.queued.Load(), n)
			}
		}
	}
	waitQueued(2) // the slot holder and the waiting walk
	cancel()
	waitQueued(1) // the walk left with its client
}

// TestServeIntrospection covers /graph and /stats.
func TestServeIntrospection(t *testing.T) {
	g := fixture(t, 77)
	s, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/graph")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Name     string `json:"name"`
		Vertices uint32 `json:"vertices"`
		Edges    uint64 `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Name != "g" || info.Vertices != g.NumVertices() || info.Edges != g.NumEdges() {
		t.Fatalf("graph info mismatch: %+v", info)
	}

	// One served query, then /stats must reflect scoped query IO.
	if resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, data)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Serving map[string]int64 `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Serving["batches_run"] < 1 {
		t.Fatalf("batches_run = %d, want >= 1", stats.Serving["batches_run"])
	}
	if stats.Serving["query_pages_read"] < 1 {
		t.Fatalf("query_pages_read = %d, want >= 1", stats.Serving["query_pages_read"])
	}
}

// TestServeSlotsKeepWorkingSet: a served query leaves its working set with
// the execution slot, and /stats and the process gauge count it; a query
// that dies of a device fault empties the slot, and so does Close.
func TestServeSlotsKeepWorkingSet(t *testing.T) {
	g := fixture(t, 78)
	s, err := New(Options{Graph: g, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	gauge := obsv.Live().SlotIdleBytes
	slotBytes := func() int64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			SlotIdleBytes int64 `json:"slot_idle_bytes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if held := s.all[0].Bytes(); stats.SlotIdleBytes != held {
			t.Fatalf("/stats slot_idle_bytes %d, the slot holds %d", stats.SlotIdleBytes, held)
		}
		return stats.SlotIdleBytes
	}
	query := func(want int) {
		t.Helper()
		if resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 2}); resp.StatusCode != want {
			t.Fatalf("query: %d %s", resp.StatusCode, data)
		}
	}

	before := gauge.Value()
	query(http.StatusOK)
	kept := slotBytes()
	if kept == 0 || gauge.Value()-before != kept {
		t.Fatalf("after a query the slot keeps %d bytes and the gauge moved %d", kept, gauge.Value()-before)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# UNIT mlvc_slot_idle_bytes bytes\n") {
		t.Fatal("/metrics lacks the slot gauge's UNIT line")
	}

	g.Device().SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{Prob: 1}})
	query(http.StatusInternalServerError)
	g.Device().SetFaults(ssd.FaultPlan{})
	if left := slotBytes(); left != 0 || gauge.Value() != before {
		t.Fatalf("after a failed query the slot keeps %d bytes, the gauge is %d from where it started", left, gauge.Value()-before)
	}

	query(http.StatusOK)
	if slotBytes() == 0 {
		t.Fatal("the slot kept nothing from a query after the failed one")
	}
	s.Close()
	if left := slotBytes(); left != 0 || gauge.Value() != before {
		t.Fatalf("after Close the slot keeps %d bytes, the gauge is %d from where it started", left, gauge.Value()-before)
	}
}

// TestServeDeadlineMSBounds: deadline_ms is outside input. Values whose
// conversion to nanoseconds would overflow int64 (from ~9.2e12 ms) must
// read as "a very long deadline", not as one already past; 0 and negative
// values keep meaning "use the server default", shown here by a default so
// short that only those requests expire.
func TestServeDeadlineMSBounds(t *testing.T) {
	g := fixture(t, 67)
	s, err := New(Options{Graph: g, DefaultDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		ms   int64
		want int
	}{
		{30_000, http.StatusOK},
		{10_000_000_000_000, http.StatusOK}, // overflows to a negative duration unclamped
		{1 << 62, http.StatusOK},            // overflows to exactly 0 unclamped
		{0, http.StatusGatewayTimeout},
		{-1, http.StatusGatewayTimeout},
	} {
		resp, data := postJSON(t, ts.URL+"/query/bfs", pointRequest{Source: 3, DeadlineMS: tc.ms})
		if resp.StatusCode != tc.want {
			t.Errorf("/query/bfs deadline_ms=%d: status %d, want %d: %s", tc.ms, resp.StatusCode, tc.want, data)
		}
		resp, data = postJSON(t, ts.URL+"/walk", walkRequest{Source: 3, Walks: 2, Length: 4, DeadlineMS: tc.ms})
		if resp.StatusCode != tc.want {
			t.Errorf("/walk deadline_ms=%d: status %d, want %d: %s", tc.ms, resp.StatusCode, tc.want, data)
		}
	}
}
