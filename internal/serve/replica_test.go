package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/ssd"
	"multilogvc/internal/wal"
)

// replicaFixture builds the same base graph on two independent devices
// and opens both WAL-backed — the "seeded from a copy of the primary"
// starting state of a follower.
func replicaFixture(t *testing.T, seed int64) (pg, fg *csr.Graph) {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	gs := make([]*csr.Graph, 2)
	for i := range gs {
		dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
		if _, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: 1 << 9, IntervalBudget: 2048}); err != nil {
			t.Fatal(err)
		}
		g, err := csr.OpenIngest(dev, "g", csr.IngestOptions{WAL: true, MergeThreshold: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	return gs[0], gs[1]
}

func mutateN(t *testing.T, url string, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	muts := make([]mutationSpec, n)
	for i := range muts {
		op := "add"
		if rng.Intn(4) == 0 {
			op = "del"
		}
		muts[i] = mutationSpec{Op: op, Src: uint32(rng.Intn(1 << 9)), Dst: uint32(rng.Intn(1 << 9))}
	}
	resp, data := postJSON(t, url+"/mutate", mutateRequest{Mutations: muts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, data)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func getJSON(t *testing.T, url string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, m
}

// TestFollowerCatchUpAndPromote is the end-to-end replication path over
// real HTTP: a follower tails the primary, converges to the identical
// graph (BFS values bit-identical), rejects /mutate with read_only,
// reports follower role and zero lag, then promotes via /admin/promote
// and becomes writable.
func TestFollowerCatchUpAndPromote(t *testing.T) {
	pg, fg := replicaFixture(t, 33)
	ps, err := New(Options{Graph: pg, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	tsP := httptest.NewServer(ps)
	defer tsP.Close()

	fs, err := New(Options{Graph: fg, EnableIngest: true, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tsF := httptest.NewServer(fs)
	defer tsF.Close()

	fol, err := fs.StartFollower(FollowerOptions{Primary: tsP.URL, Poll: 3 * time.Millisecond, LagThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}

	mutateN(t, tsP.URL, 40, 1)
	mutateN(t, tsP.URL, 25, 2)

	waitFor(t, "follower catch-up", func() bool {
		return fg.AppliedSeq() == pg.AppliedSeq() && pg.AppliedSeq() == 65
	})

	// read_only: mutations are refused with the structured 403.
	resp, data := postJSON(t, tsF.URL+"/mutate",
		mutateRequest{Mutations: []mutationSpec{{Op: "add", Src: 1, Dst: 2}}})
	if resp.StatusCode != http.StatusForbidden || errCode(t, data) != "read_only" {
		t.Fatalf("follower mutate: %d %s", resp.StatusCode, data)
	}

	// Query parity: full BFS value arrays identical on both nodes.
	var got [2]pointResponse
	for i, url := range []string{tsP.URL, tsF.URL} {
		resp, data := postJSON(t, url+"/query/bfs", pointRequest{Source: 3, Values: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bfs on node %d: %d %s", i, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got[0].AllValues) == 0 || len(got[0].AllValues) != len(got[1].AllValues) {
		t.Fatalf("value lengths: %d vs %d", len(got[0].AllValues), len(got[1].AllValues))
	}
	for v := range got[0].AllValues {
		if got[0].AllValues[v] != got[1].AllValues[v] {
			t.Fatalf("vertex %d: primary %d, follower %d", v, got[0].AllValues[v], got[1].AllValues[v])
		}
	}

	// Stats surface: follower role, synced cursor, zero lag.
	code, st := getJSON(t, tsF.URL+"/stats")
	if code != http.StatusOK || st["role"] != "follower" || st["read_only"] != true {
		t.Fatalf("follower stats: %d role=%v read_only=%v", code, st["role"], st["read_only"])
	}
	rep := st["replica"].(map[string]interface{})
	if rep["applied_seq"].(float64) != 65 || rep["lag_frames"].(float64) != 0 {
		t.Fatalf("replica stats: %v", rep)
	}
	if code, _ := getJSON(t, tsF.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("synced follower readyz = %d", code)
	}

	// Promote on a non-follower is a client error.
	resp, data = postJSON(t, tsP.URL+"/admin/promote", struct{}{})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != "bad_request" {
		t.Fatalf("promote on primary: %d %s", resp.StatusCode, data)
	}

	// Promote the follower: it becomes writable, keeps its applied seq,
	// and continues the sequence numbering.
	resp, _ = postJSON(t, tsF.URL+"/admin/promote", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d", resp.StatusCode)
	}
	if !fol.Promoted() {
		t.Fatal("follower not promoted")
	}
	resp, data = postJSON(t, tsF.URL+"/mutate",
		mutateRequest{Mutations: []mutationSpec{{Op: "add", Src: 1, Dst: 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promote mutate: %d %s", resp.StatusCode, data)
	}
	var mr mutateResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 66 {
		t.Fatalf("post-promote epoch = %d, want 66 (sequence continues)", mr.Epoch)
	}
	code, st = getJSON(t, tsF.URL+"/stats")
	if code != http.StatusOK || st["role"] != "promoted" || st["read_only"] != false {
		t.Fatalf("promoted stats: role=%v read_only=%v", st["role"], st["read_only"])
	}
	// The promoted node serves /replicate itself (chained followers).
	hr, err := http.Get(tsF.URL + "/replicate?from=60")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("promoted /replicate: %d", hr.StatusCode)
	}
}

// TestFollowerLagReadiness drives the poll loop by hand (no goroutine)
// to pin the readiness transitions deterministically: connecting ->
// lagging past the threshold (503) -> caught up (200).
func TestFollowerLagReadiness(t *testing.T) {
	pg, fg := replicaFixture(t, 34)
	ps, err := New(Options{Graph: pg, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	tsP := httptest.NewServer(ps)
	defer tsP.Close()

	fs, err := New(Options{Graph: fg, EnableIngest: true, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tsF := httptest.NewServer(fs)
	defer tsF.Close()
	fol, err := fs.newFollower(FollowerOptions{Primary: tsP.URL, BatchMax: 4, LagThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}

	code, body := getJSON(t, tsF.URL+"/readyz")
	if code != http.StatusServiceUnavailable || body["reason"] != "replica_connecting" {
		t.Fatalf("pre-sync readyz: %d %v", code, body["reason"])
	}

	mutateN(t, tsP.URL, 20, 3)

	// One poll applies BatchMax=4 of 20: lag 16 > threshold 3 -> unready.
	if _, err := fol.pollOnce(); err != nil {
		t.Fatal(err)
	}
	code, body = getJSON(t, tsF.URL+"/readyz")
	if code != http.StatusServiceUnavailable || body["reason"] != "replica_lag" {
		t.Fatalf("lagging readyz: %d %v", code, body["reason"])
	}
	rep := body["replica"].(map[string]interface{})
	if rep["lag_frames"].(float64) != 16 {
		t.Fatalf("lag_frames = %v, want 16", rep["lag_frames"])
	}

	// Catch up; readiness recovers.
	for i := 0; i < 6; i++ {
		if _, err := fol.pollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if fg.AppliedSeq() != 20 {
		t.Fatalf("applied %d, want 20", fg.AppliedSeq())
	}
	code, _ = getJSON(t, tsF.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("caught-up readyz = %d", code)
	}
}

// TestFollowerGapIsSticky merges the primary past the follower's cursor
// and checks the poll surfaces the classified gap, readiness flips to
// replica_gap, and it does not clear on retry.
func TestFollowerGapIsSticky(t *testing.T) {
	pg, fg := replicaFixture(t, 35)
	ps, err := New(Options{Graph: pg, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	tsP := httptest.NewServer(ps)
	defer tsP.Close()

	fs, err := New(Options{Graph: fg, EnableIngest: true, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tsF := httptest.NewServer(fs)
	defer tsF.Close()
	fol, err := fs.newFollower(FollowerOptions{Primary: tsP.URL})
	if err != nil {
		t.Fatal(err)
	}

	mutateN(t, tsP.URL, 10, 4)
	if err := pg.MergeInterval(0); err != nil {
		t.Fatal(err)
	}
	if _, err := fol.pollOnce(); !errors.Is(err, wal.ErrSeqGap) {
		t.Fatalf("poll past merge: err = %v, want wal.ErrSeqGap", err)
	}
	code, body := getJSON(t, tsF.URL+"/readyz")
	if code != http.StatusServiceUnavailable || body["reason"] != "replica_gap" {
		t.Fatalf("gap readyz: %d %v", code, body["reason"])
	}
	if _, err := fol.pollOnce(); !errors.Is(err, wal.ErrSeqGap) {
		t.Fatal("gap did not stick")
	}
}

// TestPromoteOnDisconnect kills the primary and checks the follower
// promotes itself after the grace window.
func TestPromoteOnDisconnect(t *testing.T) {
	pg, fg := replicaFixture(t, 36)
	ps, err := New(Options{Graph: pg, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	tsP := httptest.NewServer(ps)

	fs, err := New(Options{Graph: fg, EnableIngest: true, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tsF := httptest.NewServer(fs)
	defer tsF.Close()
	fol, err := fs.StartFollower(FollowerOptions{
		Primary:             tsP.URL,
		Poll:                2 * time.Millisecond,
		PromoteOnDisconnect: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	mutateN(t, tsP.URL, 12, 5)
	waitFor(t, "sync before kill", func() bool { return fg.AppliedSeq() == 12 })

	tsP.Close() // primary dies
	waitFor(t, "auto-promotion", fol.Promoted)

	resp, data := postJSON(t, tsF.URL+"/mutate",
		mutateRequest{Mutations: []mutationSpec{{Op: "add", Src: 5, Dst: 6}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-auto-promote mutate: %d %s", resp.StatusCode, data)
	}
	st := fol.status()
	if st.Role != "promoted" || !strings.Contains(st.PromoteReason, "unreachable") {
		t.Fatalf("status after auto-promote: %+v", st)
	}
}

// TestMutateOutOfRangeNamesBound pins the satellite contract: a mutation
// on a vertex at or past NumVertices is a structured bad_request whose
// message names the bound, both via handler validation and via the
// csr sentinel classification.
func TestMutateOutOfRangeNamesBound(t *testing.T) {
	g := fixture(t, 37)
	s, err := New(Options{Graph: g, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/mutate",
		mutateRequest{Mutations: []mutationSpec{{Op: "add", Src: 1 << 9, Dst: 0}}})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != "bad_request" {
		t.Fatalf("out-of-range mutate: %d %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), fmt.Sprint(1<<9)) {
		t.Fatalf("error does not name the bound: %s", data)
	}
}

// TestReplicateEndpointValidation covers the handler's client-error and
// not-durable paths.
func TestReplicateEndpointValidation(t *testing.T) {
	// A volatile graph (no WAL) cannot ship frames.
	g := fixture(t, 38)
	s, err := New(Options{Graph: g, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/replicate?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("volatile /replicate: %d, want 503 not_ready", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/replicate?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: %d", resp.StatusCode)
	}
}
