package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/serve"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// TestServingChaosSoak is the serving-plane resilience soak: concurrent
// clients hammer a live daemon while the device injects transient,
// corrupt, and no-space faults, and every response must be either
// bit-identical to the in-memory reference or classified — never a
// mangled result, never an unclassified internal error, never a dead
// daemon. Then a hard fault storm must flip readiness (breaker open),
// and a healed device must bring it back. CI runs this under -race.
//
// Corruption is scoped to query scratch (".q" namespaces): injected
// flips are sticky on the stored pages, and poisoning the resident
// adjacency would turn the recovery phases into a corruption test.
func TestServingChaosSoak(t *testing.T) {
	edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, 4242))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 9
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: n, IntervalBudget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	cache := pagecache.NewSharded(256, dev.PageSize(), 4)
	dev.AttachCache(cache)

	// In-memory references for every source the storm will query.
	sources := ServingSources(n, 8)
	refBFS := make(map[uint32][]uint32, len(sources))
	refSSSP := make(map[uint32][]uint32, len(sources))
	for _, src := range sources {
		refBFS[src] = vc.NewRef(edges, n).Run(&apps.BFS{Source: src}, 100).Values
		refSSSP[src] = vc.NewRef(edges, n).Run(&apps.SSSP{Source: src}, 100).Values
	}

	s, err := serve.New(serve.Options{
		Graph:             g,
		Cache:             cache,
		MaxBatch:          8,
		MaxConcurrent:     2,
		BreakerWindow:     16,
		BreakerThreshold:  0.6,
		BreakerMinSamples: 6,
		BreakerCooldown:   200 * time.Millisecond,
		BreakerProbes:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(path string, body interface{}) (int, []byte) {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	getStatus := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	errCode := func(data []byte) string {
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(data, &e) != nil {
			return ""
		}
		return e.Error.Code
	}
	// The bit-identical-or-classified invariant, shared by all phases.
	classifiedOK := map[string]bool{
		"device_fault": true, "corrupt": true, "no_space": true,
		"deadline": true, "breaker_open": true, "overloaded": true,
	}

	// Phase 1: mixed-fault storm under concurrent clients. Probabilities
	// are per page operation, and a run touches hundreds of 512-byte
	// pages, so per-run fault rates are far higher than these look.
	storm := ssd.FaultPlan{
		Seed:      101,
		Transient: ssd.Trigger{Prob: 0.02},
		Corrupt:   ssd.Trigger{Prob: 0.001}, CorruptOnly: ".q",
		NoSpace: ssd.Trigger{Prob: 0.01},
	}
	dev.SetFaults(storm)

	clients, perClient := 4, 24
	if testing.Short() {
		clients, perClient = 2, 8
	}
	var mu sync.Mutex
	codeCounts := map[string]int{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				src := sources[(c*perClient+i)%len(sources)]
				kind, want := "bfs", refBFS[src]
				if (c+i)%3 == 1 {
					kind, want = "sssp", refSSSP[src]
				}
				if (c+i)%7 == 6 {
					// Walks read only the adjacency: success or classified.
					status, data := post("/walk", map[string]interface{}{
						"source": src, "walks": 3, "length": 6, "seed": c*100 + i,
					})
					if status != http.StatusOK && !classifiedOK[errCode(data)] {
						t.Errorf("client %d walk %d: status %d unclassified: %s", c, i, status, data)
					}
					continue
				}
				status, data := post("/query/"+kind, map[string]interface{}{
					"source": src, "values": true, "deadline_ms": 30_000,
				})
				var label string
				if status == http.StatusOK {
					var pr struct {
						Isolated  bool     `json:"isolated"`
						AllValues []uint32 `json:"all_values"`
					}
					if err := json.Unmarshal(data, &pr); err != nil {
						t.Errorf("client %d query %d: bad body: %v", c, i, err)
						continue
					}
					for v := range want {
						if pr.AllValues[v] != want[v] {
							t.Errorf("client %d %s from %d vertex %d: served %d != reference %d (isolated=%v)",
								c, kind, src, v, pr.AllValues[v], want[v], pr.Isolated)
							break
						}
					}
					label = "ok"
					if pr.Isolated {
						label = "ok_isolated"
					}
				} else {
					code := errCode(data)
					if !classifiedOK[code] {
						t.Errorf("client %d %s query %d: status %d unclassified %q: %s",
							c, kind, i, status, code, data)
						continue
					}
					label = code
				}
				mu.Lock()
				codeCounts[label]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	t.Logf("storm outcomes: %v", codeCounts)
	if codeCounts["ok"]+codeCounts["ok_isolated"] == 0 {
		t.Error("storm never completed a successful query — fault rates too hot to exercise the success path")
	}

	// Phase 2: hard fault storm must open the breaker and flip readiness.
	storm.Seed, storm.Transient.Prob = 104, 1
	dev.SetFaults(storm)
	flipDeadline := time.Now().Add(10 * time.Second)
	flipped := false
	for time.Now().Before(flipDeadline) {
		status, data := post("/query/bfs", map[string]interface{}{
			"source": sources[0], "deadline_ms": 10_000,
		})
		if status == http.StatusOK {
			t.Fatalf("query succeeded with transient probability 1: %s", data)
		}
		if !classifiedOK[errCode(data)] {
			t.Fatalf("hard storm: status %d unclassified: %s", status, data)
		}
		if getStatus("/readyz") == http.StatusServiceUnavailable {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("readiness never flipped under a sustained hard fault storm")
	}
	if getStatus("/healthz") != http.StatusOK {
		t.Fatal("liveness flipped with readiness — healthz must stay 200 while the process serves")
	}

	// Phase 3: the device heals; half-open probes must close the breaker
	// and restore readiness.
	dev.SetFaults(ssd.FaultPlan{})
	healDeadline := time.Now().Add(15 * time.Second)
	healed := false
	for time.Now().Before(healDeadline) {
		status, _ := post("/query/bfs", map[string]interface{}{
			"source": sources[0], "deadline_ms": 10_000,
		})
		if status == http.StatusOK && getStatus("/readyz") == http.StatusOK {
			healed = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !healed {
		t.Fatal("daemon never recovered readiness after the device healed")
	}

	// Phase 4: final parity on a healed daemon, then drain and audit the
	// shared state for leaks.
	for _, src := range sources[:2] {
		status, data := post("/query/bfs", map[string]interface{}{
			"source": src, "values": true, "deadline_ms": 30_000,
		})
		if status != http.StatusOK {
			t.Fatalf("final parity query: status %d: %s", status, data)
		}
		var pr struct {
			AllValues []uint32 `json:"all_values"`
		}
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		for v := range refBFS[src] {
			if pr.AllValues[v] != refBFS[src][v] {
				t.Fatalf("final parity from %d vertex %d: %d != %d",
					src, v, pr.AllValues[v], refBFS[src][v])
			}
		}
	}
	s.Close()
	if p := cache.PinnedPages(); p != 0 {
		t.Fatalf("%d pages left pinned after the soak", p)
	}
	var leaked []string
	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.q") {
			leaked = append(leaked, name)
		}
	}
	if len(leaked) > 0 {
		t.Fatalf("query scratch leaked: %s", fmt.Sprint(leaked))
	}
}
