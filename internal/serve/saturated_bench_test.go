package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

// BenchmarkServeSaturated is the stick for "does lane batching earn its
// keep": the daemon behind real HTTP on loopback with many more closed-loop
// clients than its two execution slots, so queries queue and the batcher
// has something to fuse, at Options.MaxBatch 16 (the default) against 1
// (every query its own execution). The stack is the serve_read workload's:
// RMAT 11×12 on a 4 KiB-page device, a 64 MiB cache that holds the whole
// graph, and a 64 KiB engine budget, under which a fused batch's records
// outgrow the sort budget and spill. qps and p95-ms are what the clients
// see; pages/query is each reply's batch_pages_read over its batch_size.
// EXPERIMENTS §Serving cost records this shape beside four others; use
// -benchtime 5s or longer for numbers, 1x only proves it runs.
func BenchmarkServeSaturated(b *testing.B) {
	const (
		pageSize = 4096
		budget   = 64 << 10
	)
	edges, err := gen.RMAT(gen.DefaultRMAT(11, 12, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{8, 32} {
		for _, maxBatch := range []int{1, 16} {
			b.Run(fmt.Sprintf("clients=%d/maxbatch=%d", clients, maxBatch), func(b *testing.B) {
				dev := ssd.MustOpen(ssd.Config{PageSize: pageSize, Channels: 8})
				if _, err := csr.Build(dev, "g", edges, csr.BuildOptions{IntervalBudget: core.IntervalBudget(budget)}); err != nil {
					b.Fatal(err)
				}
				cache := pagecache.FromMB(64, pageSize)
				dev.AttachCache(cache)
				g, err := csr.Open(dev, "g")
				if err != nil {
					b.Fatal(err)
				}
				s, err := New(Options{Graph: g, MemoryBudget: budget, MaxBatch: maxBatch})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				ts := httptest.NewServer(s)
				defer ts.Close()

				saturate(b, ts.URL, g.NumVertices(), clients, 2*clients) // warm the cache and the connections
				b.ResetTimer()
				lat, pages := saturate(b, ts.URL, g.NumVertices(), clients, b.N)
				b.StopTimer()
				if len(lat) == 0 {
					return
				}
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(len(lat))/b.Elapsed().Seconds(), "qps")
				b.ReportMetric(float64(lat[len(lat)*95/100].Microseconds())/1e3, "p95-ms")
				b.ReportMetric(pages/float64(len(lat)), "pages/query")
			})
		}
	}
}

// saturate answers total BFS point queries through `clients` closed-loop
// connections — each sends its next query when its last one answered — and
// returns the answered queries' latencies and their summed per-query pages.
func saturate(b *testing.B, url string, n uint32, clients, total int) ([]time.Duration, float64) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		lat   []time.Duration
		pages float64
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One transport per client, so no two share a connection.
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
			defer hc.CloseIdleConnections()
			var myLat []time.Duration
			var myPages float64
			for i := next.Add(1); i <= int64(total); i = next.Add(1) {
				v := uint32(i) * 2654435761
				body, _ := json.Marshal(pointRequest{Source: v % n, Targets: []uint32{(v >> 3) % n, (v >> 7) % n, (v >> 11) % n, (v >> 13) % n}})
				t0 := time.Now()
				resp, err := hc.Post(url+"/query/bfs", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				var pr pointResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || pr.BatchSize == 0 {
					b.Errorf("query %d: status %d, decode error %v", i, resp.StatusCode, err)
					return
				}
				myLat = append(myLat, time.Since(t0))
				myPages += float64(pr.BatchPagesRead) / float64(pr.BatchSize)
			}
			mu.Lock()
			lat = append(lat, myLat...)
			pages += myPages
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, pages
}
