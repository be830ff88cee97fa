package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/ssd"
)

// ingestFixture builds a graph and reopens it through the ingest plane
// (volatile WAL-less ingest is enough for handler tests; durability is
// covered by csr/wal tests and the CI kill -9 smoke).
func ingestFixture(t *testing.T, opts csr.IngestOptions) *csr.Graph {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(8, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	if _, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: 1 << 8, IntervalBudget: 2048}); err != nil {
		t.Fatal(err)
	}
	g, err := csr.OpenIngest(dev, "g", opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newIngestServer(t *testing.T, g *csr.Graph) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Graph: g, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func mutateBody(muts ...mutationSpec) map[string]interface{} {
	return map[string]interface{}{"mutations": muts}
}

// TestMutateEndpoint pins the happy path: a batch acks with the epoch
// and pending counts, and subsequent queries see the new edges.
func TestMutateEndpoint(t *testing.T) {
	g := ingestFixture(t, csr.IngestOptions{MergeThreshold: 1 << 30})
	_, ts := newIngestServer(t, g)

	resp, data := postJSON(t, ts.URL+"/mutate", mutateBody(
		mutationSpec{Op: "add", Src: 1, Dst: 2},
		mutationSpec{Op: "add", Src: 2, Dst: 3},
		mutationSpec{Op: "del", Src: 1, Dst: 2},
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, data)
	}
	var mr mutateResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Acked != 3 || mr.Epoch == 0 {
		t.Fatalf("ack = %+v", mr)
	}
	if mr.Durable {
		t.Fatalf("volatile ingest reported durable: %+v", mr)
	}
	// The del cancelled its same-epoch add: only 2->3 remains buffered.
	if mr.Pending != 2 {
		t.Fatalf("pending = %d, want 2 (same-epoch cancel)", mr.Pending)
	}
	var deg, want int
	_, err := g.LoadOutEdges(g.IntervalOf(2), []uint32{2}, func(_ uint32, nbrs []uint32) {
		deg = len(nbrs)
		for _, nb := range nbrs {
			if nb == 3 {
				want++
			}
		}
	})
	if err != nil || want == 0 {
		t.Fatalf("added edge 2->3 not visible (deg=%d err=%v)", deg, err)
	}
}

// TestMutateValidation pins the 400 family: bad op, out-of-range edge,
// empty and oversized batches, wrong method.
func TestMutateValidation(t *testing.T) {
	g := ingestFixture(t, csr.IngestOptions{MergeThreshold: 1 << 30})
	_, ts := newIngestServer(t, g)

	cases := []struct {
		name string
		body interface{}
	}{
		{"bad op", mutateBody(mutationSpec{Op: "upsert", Src: 1, Dst: 2})},
		{"out of range", mutateBody(mutationSpec{Op: "add", Src: 1, Dst: 1 << 20})},
		{"empty", mutateBody()},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL+"/mutate", c.body)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != "bad_request" {
			t.Fatalf("%s: %d %s", c.name, resp.StatusCode, data)
		}
	}
	big := make([]mutationSpec, maxMutationsPerRequest+1)
	for i := range big {
		big[i] = mutationSpec{Op: "add", Src: 1, Dst: 2}
	}
	resp, data := postJSON(t, ts.URL+"/mutate", mutateBody(big...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d %s", resp.StatusCode, data)
	}
	r, err := http.Get(ts.URL + "/mutate")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mutate: %d", r.StatusCode)
	}
}

// TestMutateBackpressure pins the 503 contract: past MaxPending the
// batch is shed with code ingest_backpressure and a Retry-After header,
// and nothing of it is applied.
func TestMutateBackpressure(t *testing.T) {
	g := ingestFixture(t, csr.IngestOptions{MaxPending: 4, MergeThreshold: 1 << 30})
	_, ts := newIngestServer(t, g)

	resp, data := postJSON(t, ts.URL+"/mutate", mutateBody(
		mutationSpec{Op: "add", Src: 1, Dst: 2},
		mutationSpec{Op: "add", Src: 2, Dst: 3},
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch: %d %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/mutate", mutateBody(mutationSpec{Op: "add", Src: 3, Dst: 4}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap batch: %d %s", resp.StatusCode, data)
	}
	if code := errCode(t, data); code != "ingest_backpressure" {
		t.Fatalf("code = %q", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}
	if p := g.PendingUpdates(); p != 4 {
		t.Fatalf("shed batch leaked: pending = %d", p)
	}
}

// TestMutateDisabledByDefault pins that /mutate 404s unless EnableIngest
// is set.
func TestMutateDisabledByDefault(t *testing.T) {
	g := fixture(t, 7)
	s, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	resp, _ := postJSON(t, ts.URL+"/mutate", mutateBody(mutationSpec{Op: "add", Src: 1, Dst: 2}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/mutate without EnableIngest: %d", resp.StatusCode)
	}
}

// TestQueriesSnapshotIsolatedFromIngest runs a query, mutates heavily,
// reruns, and checks (a) both answers are self-consistent and (b) an
// in-flight pinned snapshot defers merges rather than racing them —
// exercised by mutating past the merge threshold while queries run.
func TestQueriesSnapshotIsolatedFromIngest(t *testing.T) {
	g := ingestFixture(t, csr.IngestOptions{MergeThreshold: 64})
	s, err := New(Options{Graph: g, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	before := single(t, g, "bfs", 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			n := g.NumVertices()
			postJSON(t, ts.URL+"/mutate", mutateBody(
				mutationSpec{Op: "add", Src: uint32(i) % n, Dst: uint32(i*7+1) % n},
				mutationSpec{Op: "add", Src: uint32(i*3) % n, Dst: uint32(i*11+2) % n},
			))
		}
	}()
	for i := 0; i < 10; i++ {
		resp, data := postJSON(t, ts.URL+"/query/bfs", map[string]interface{}{"source": 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d during ingest: %d %s", i, resp.StatusCode, data)
		}
	}
	<-done
	// Quiesced: a fresh sequential run and a served query must agree.
	resp, data := postJSON(t, ts.URL+"/query/bfs", map[string]interface{}{"source": 1, "values": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final query: %d %s", resp.StatusCode, data)
	}
	var pr pointResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	after := single(t, g, "bfs", 1)
	if len(pr.AllValues) != len(after) {
		t.Fatalf("value lengths: served %d vs sequential %d", len(pr.AllValues), len(after))
	}
	for i := range after {
		if pr.AllValues[i] != after[i] {
			t.Fatalf("vertex %d: served %d vs sequential %d", i, pr.AllValues[i], after[i])
		}
	}
	_ = before
	if st := g.IngestStats(); st.Pins != 0 {
		t.Fatalf("leaked snapshot pins: %d", st.Pins)
	}
}

// TestStatsIngestSection pins the /stats surface the CI smoke scrapes.
func TestStatsIngestSection(t *testing.T) {
	g := ingestFixture(t, csr.IngestOptions{MaxPending: 100, MergeThreshold: 1 << 30})
	_, ts := newIngestServer(t, g)
	if _, data := postJSON(t, ts.URL+"/mutate", mutateBody(mutationSpec{Op: "add", Src: 1, Dst: 2})); data == nil {
		t.Fatal("no ack")
	}
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Ingest map[string]interface{} `json:"ingest"`
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Ingest == nil {
		t.Fatal("/stats has no ingest section")
	}
	for _, k := range []string{"pending_updates", "epoch", "merges", "durable", "wal_appends"} {
		if _, ok := st.Ingest[k]; !ok {
			t.Fatalf("/stats ingest missing %q: %v", k, st.Ingest)
		}
	}
	if fmt.Sprint(st.Ingest["pending_updates"]) != "2" {
		t.Fatalf("pending_updates = %v", st.Ingest["pending_updates"])
	}
}
