package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// TestChaosSoak drives every soak of the chaos kit, one subtest per
// configuration: the engine soak (random engines, programs and fault
// mixes against the reference engine) on RAM and on a directory; the
// serving soak (a live daemon under concurrent clients and fault storms)
// on RAM and on a directory; and the WAL soak without and with a
// follower. Each row runs its case count, fewer under -short, and must
// have exercised each outcome it names at least once over its seeds. CI
// runs it under -race; crank the counts for a longer local soak.
func TestChaosSoak(t *testing.T) {
	rows := []struct {
		name        string
		full, short int
		seed0       int64
		run         func(t *testing.T, seed int64) (outcome, error)
		must        []string
	}{
		{"engine", 40, 8, 0xC4A05 << 16, func(t *testing.T, seed int64) (outcome, error) {
			return chaosCase(seed, "")
		}, []string{"clean"}},
		{"engine-dir", 40, 8, 0xC4A05 << 16, func(t *testing.T, seed int64) (outcome, error) {
			return chaosCase(seed, t.TempDir())
		}, []string{"clean", "resumed"}},
		{"serving", 1, 1, 0, func(t *testing.T, _ int64) (outcome, error) {
			return servingSoak(t, ""), nil
		}, []string{"ok", "readiness-flip", "healed"}},
		{"serving-dir", 1, 1, 0, func(t *testing.T, _ int64) (outcome, error) {
			return servingSoak(t, t.TempDir()), nil
		}, []string{"ok", "readiness-flip", "healed"}},
		{"ingest", 24, 6, 0x16E57 << 16, func(t *testing.T, seed int64) (outcome, error) {
			return walChaosCase(seed, t.TempDir, false)
		}, []string{"crash-reopen"}},
		// A gap termination ends about one failover case in ten; this
		// base's first five seeds hold two.
		{"failover", 20, 5, 0xFA117 << 16, func(t *testing.T, seed int64) (outcome, error) {
			return walChaosCase(seed, t.TempDir, true)
		}, []string{"crash-reopen", "shipped", "replica_gap", "promotion"}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cases := r.full
			if testing.Short() {
				cases = r.short
			}
			total := map[string]int{}
			for i := 0; i < cases; i++ {
				seed := r.seed0 | int64(i)
				out, err := r.run(t, seed)
				if err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
				for k, n := range out.n {
					total[k] += n
				}
				t.Logf("seed %#x [%s] -> %v", seed, out.desc, out.n)
			}
			t.Logf("%d cases: %v", cases, total)
			for _, m := range r.must {
				if total[m] == 0 {
					t.Errorf("never exercised %q over %d cases", m, cases)
				}
			}
		})
	}
}

// servingSoak is the serving-plane resilience soak on a RAM device, or on
// one backed by dir: concurrent clients hammer a live daemon while the
// device injects transient, corrupt, and no-space faults, and every
// response must be either bit-identical to the in-memory reference or
// classified — never a mangled result, never an unclassified internal
// error, never a dead daemon. Then a hard fault storm must flip
// readiness (breaker open), and a healed device must bring it back.
//
// Corruption is scoped to query scratch (".q" namespaces): injected
// flips are sticky on the stored pages, and poisoning the resident
// adjacency would turn the recovery phases into a corruption test.
func servingSoak(t *testing.T, dir string) outcome {
	goroutines := runtime.NumGoroutine()
	edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, 4242))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 9
	env, err := chaosSetup{
		ds:       Dataset{Name: "g", Edges: edges, N: n},
		devCfg:   ssd.Config{PageSize: 512, Channels: 4},
		ivBudget: 2048,
	}.env(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	dev := env.Dev
	cache := pagecache.NewSharded(256, dev.PageSize(), 4)
	dev.AttachCache(cache)
	out := outcome{desc: "storm+hard-storm+heal", n: map[string]int{}}

	// In-memory references for every source the storm will query.
	sources := ServingSources(n, 8)
	refBFS := make(map[uint32][]uint32, len(sources))
	refSSSP := make(map[uint32][]uint32, len(sources))
	for _, src := range sources {
		refBFS[src] = vc.NewRef(edges, n).Run(&apps.BFS{Source: src}, 100).Values
		refSSSP[src] = vc.NewRef(edges, n).Run(&apps.SSSP{Source: src}, 100).Values
	}

	s, err := serve.New(serve.Options{
		Graph:             env.Graph,
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
	// decode reads a reply: its error code, or its values and whether
	// batch fault isolation re-ran it solo.
	decode := func(data []byte) (code string, vals []uint32, isolated bool) {
		var r struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
			Isolated  bool     `json:"isolated"`
			AllValues []uint32 `json:"all_values"`
		}
		_ = json.Unmarshal(data, &r)
		return r.Error.Code, r.AllValues, r.Isolated
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
					if code, _, _ := decode(data); status != http.StatusOK && !slices.Contains(servingCodes, code) {
						t.Errorf("client %d walk %d: status %d unclassified: %s", c, i, status, data)
					}
					continue
				}
				status, data := post("/query/"+kind, map[string]interface{}{
					"source": src, "values": true, "deadline_ms": 30_000,
				})
				code, got, isolated := decode(data)
				labels := []string{code}
				if status == http.StatusOK {
					if !slices.Equal(got, want) {
						t.Errorf("client %d %s from %d: served values differ from the reference (isolated=%v)",
							c, kind, src, isolated)
					}
					labels = []string{"ok"}
					if isolated {
						labels = append(labels, "isolated")
					}
				} else if !slices.Contains(servingCodes, labels[0]) {
					t.Errorf("client %d %s query %d: status %d unclassified: %s", c, kind, i, status, data)
					continue
				}
				mu.Lock()
				for _, l := range labels {
					out.n[l]++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// Phase 2: hard fault storm must open the breaker and flip readiness.
	storm.Seed, storm.Transient.Prob = 104, 1
	dev.SetFaults(storm)
	for flip := time.Now().Add(10 * time.Second); out.n["readiness-flip"] == 0; {
		if time.Now().After(flip) {
			t.Fatal("readiness never flipped under a sustained hard fault storm")
		}
		status, data := post("/query/bfs", map[string]interface{}{
			"source": sources[0], "deadline_ms": 10_000,
		})
		if status == http.StatusOK {
			t.Fatalf("query succeeded with transient probability 1: %s", data)
		}
		if code, _, _ := decode(data); !slices.Contains(servingCodes, code) {
			t.Fatalf("hard storm: status %d unclassified: %s", status, data)
		}
		if getStatus("/readyz") == http.StatusServiceUnavailable {
			out.n["readiness-flip"]++
		}
	}
	if getStatus("/healthz") != http.StatusOK {
		t.Fatal("liveness flipped with readiness — healthz must stay 200 while the process serves")
	}

	// Phase 3: the device heals; half-open probes must close the breaker
	// and restore readiness.
	dev.SetFaults(ssd.FaultPlan{})
	for heal := time.Now().Add(15 * time.Second); out.n["healed"] == 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(heal) {
			t.Fatal("daemon never recovered readiness after the device healed")
		}
		status, _ := post("/query/bfs", map[string]interface{}{
			"source": sources[0], "deadline_ms": 10_000,
		})
		if status == http.StatusOK && getStatus("/readyz") == http.StatusOK {
			out.n["healed"]++
		}
	}

	// Phase 4: final parity on a healed daemon, then drain and audit.
	for _, src := range sources[:2] {
		status, data := post("/query/bfs", map[string]interface{}{
			"source": src, "values": true, "deadline_ms": 30_000,
		})
		if status != http.StatusOK {
			t.Fatalf("final parity query: status %d: %s", status, data)
		}
		if _, got, _ := decode(data); !slices.Equal(got, refBFS[src]) {
			t.Fatalf("final parity from %d: served values differ from the reference", src)
		}
	}
	s.Close()
	ts.Close()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := drainAudit(dev, dir, goroutines); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChaosKitChecksFail hands each of the kit's checkers a state that is
// right, which must pass, and the same state broken on purpose, which
// must fail naming the defect — so no soak above can pass vacuously.
func TestChaosKitChecksFail(t *testing.T) {
	a, b := csr.Mutation{Src: 0, Dst: 1}, csr.Mutation{Src: 1, Dst: 0}
	// applied opens a fresh WAL case whose stream is stream and whose
	// node (the follower if follower is set) has applied exactly applied.
	applied := func(t *testing.T, follower bool, stream, applied []csr.Mutation) (*walCase, *walNode) {
		c, err := newWALCase(1, t.TempDir, follower)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.close() })
		nd := c.primary
		if follower {
			nd = c.follower
		}
		if err := nd.g.ApplyMutations(applied, 0); err != nil {
			t.Fatal(err)
		}
		c.stream = stream
		return c, nd
	}
	// audit closes a directory-backed device holding one graph file and
	// runs drainAudit over it, after spoil when the state is broken.
	audit := func(t *testing.T, broken bool, spoil func(*ssd.Device, string) error) error {
		dir := t.TempDir()
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 1, Dir: dir})
		if _, err := dev.Create("g.meta"); err != nil {
			t.Fatal(err)
		}
		if broken {
			if err := spoil(dev, dir); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
		return drainAudit(dev, dir, runtime.NumGoroutine())
	}
	rows := []struct {
		name, want string
		check      func(t *testing.T, broken bool) error
	}{
		{"crash/acked-mutation-dropped", "acked", func(t *testing.T, broken bool) error {
			got := []csr.Mutation{a, b}
			if broken {
				got = got[:1]
			}
			c, nd := applied(t, false, []csr.Mutation{a, b}, got)
			return c.crash(nd, nil)
		}},
		{"follower/duplicated-frame", "diverged", func(t *testing.T, broken bool) error {
			got := []csr.Mutation{a, b}
			if broken {
				got = []csr.Mutation{a, a}
			}
			c, nd := applied(t, true, []csr.Mutation{a, b}, got)
			return c.check(nd)
		}},
		{"follower/cursor-past-stream", "beyond", func(t *testing.T, broken bool) error {
			stream := []csr.Mutation{a, b}
			if broken {
				stream = stream[:1]
			}
			c, nd := applied(t, true, stream, []csr.Mutation{a, b})
			return c.check(nd)
		}},
		{"drain/scratch-file", "scratch", func(t *testing.T, broken bool) error {
			return audit(t, broken, func(dev *ssd.Device, _ string) error {
				_, err := dev.Create("g.q7.mlog.0")
				return err
			})
		}},
		{"drain/device-left-open", "left open", func(t *testing.T, broken bool) error {
			// A finished ingest case whose node drops its Close.
			c, err := newWALCase(1, t.TempDir, false)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.close() })
			nd := c.primary
			if !broken {
				if err := nd.dev.Close(); err != nil {
					t.Fatal(err)
				}
			}
			return drainAudit(nd.dev, nd.cfg.Dir, runtime.NumGoroutine())
		}},
		{"drain/stray-dir-entry", "not on the device", func(t *testing.T, broken bool) error {
			return audit(t, broken, func(_ *ssd.Device, dir string) error {
				return os.WriteFile(filepath.Join(dir, "g.stray"), nil, 0o644)
			})
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if err := r.check(t, false); err != nil {
				t.Fatalf("the intact state fails the check: %v", err)
			}
			if err := r.check(t, true); err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("the broken state gives %v, want an error naming %q", err, r.want)
			}
		})
	}
}
