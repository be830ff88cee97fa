package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/serve"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// serving is a daemon workload: an in-process serve.Server with default
// Options behind a real http.Server on loopback, with mlvcd's default
// 64 MiB cache (the whole graph fits), driven by
// closed-loop clients: each sends its next query when the last one
// answered.
type serving struct {
	name    string
	clients int
	// mixed adds a second connection that POSTs /mutate on a fixed
	// schedule against a WAL-backed graph.
	mixed bool
}

var (
	// serveRead is the daemon at saturation on a two-core host: two
	// clients, so the batcher settles at two lanes per engine run.
	serveRead = serving{name: "serve_read", clients: 2}
	// serveMixed reads beside writes: one never-batched reader, and WAL
	// group commits, the delta overlay, inline merges and epoch-pinned
	// snapshots on the other connection.
	serveMixed = serving{name: "serve_mixed", clients: 1, mixed: true}
)

const (
	serveBudget   = 64 << 10 // build and per-execution memory budget (10 intervals)
	serveCacheMB  = 64       // mlvcd's default
	queryTargets  = 4
	mutateEvery   = 50 * time.Millisecond
	mutateAdds    = 128 // per batch, plus as many deletes once the window is full
	mutateLag     = 8   // a batch deletes the adds sent this many batches earlier
	serveWarmup   = 2 * time.Second
	quiesceChecks = 8 // BFS sources verified over HTTP after serve_mixed quiesces
)

func serveScale(quick bool) int {
	if quick {
		return 9
	}
	return 11
}

// daemon is one set-up serving stack.
type daemon struct {
	dev    *ssd.Device
	cache  *pagecache.Cache
	g      *csr.Graph
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	edges  []graphio.Edge // the base graph
	genS   float64
	buildS float64
}

// setup generates the graph, builds its CSR on a fresh device, then does
// what mlvcd does at start-up: attach the cache, open the graph (with its
// WAL when mixed), start the HTTP server and wait for /readyz.
//
// The device is RAM-backed, as on the analytics workloads; the virtual
// clock and page counters charge flash time either way. A directory-backed
// device put the sandbox's file system in the numbers: the same seed's
// median query took anywhere from 29 to 40 ms on ext4 against 25.7 to
// 27.6 ms on RAM, which no bound could gate.
func (w serving) setup(o options) (*daemon, error) {
	t0 := time.Now()
	edges, err := gen.RMAT(gen.DefaultRMAT(serveScale(o.quick), 12, o.seed))
	if err != nil {
		return nil, err
	}
	d := &daemon{edges: edges, genS: time.Since(t0).Seconds()}
	if d.dev, err = ssd.Open(ssd.Config{PageSize: pageSize, Channels: channels}); err != nil {
		return nil, err
	}
	if _, err := csr.Build(d.dev, "g", edges, csr.BuildOptions{IntervalBudget: serveBudget * 75 / 100}); err != nil {
		return nil, err
	}
	d.buildS = time.Since(t0).Seconds() - d.genS

	d.cache = pagecache.FromMB(serveCacheMB, pageSize)
	d.dev.AttachCache(d.cache)
	if w.mixed {
		d.g, err = csr.OpenIngest(d.dev, "g", csr.IngestOptions{WAL: true, FlushEvery: 2 * time.Millisecond, MaxPending: 1 << 20})
	} else {
		d.g, err = csr.Open(d.dev, "g")
	}
	if err != nil {
		return nil, err
	}
	d.srv, err = serve.New(serve.Options{Graph: d.g, Cache: d.cache, MemoryBudget: serveBudget, EnableIngest: w.mixed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 5 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: daemon not ready after 10s (last error: %v)", w.name, err)
		}
	}
}

// close drains the daemon and checks it left nothing behind: no pinned
// cache page and no per-query scratch file. A leak is a failed operation.
func (d *daemon) close(rec *record) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Close()
	if cerr := d.g.CloseIngest(); err == nil {
		err = cerr
	}
	if rec != nil {
		rec.check(d.cache.PinnedPages() == 0, "drain: %d cache pages still pinned", d.cache.PinnedPages())
		var scratch []string
		for _, name := range d.dev.ListFiles() {
			if strings.HasPrefix(name, "g.q") {
				scratch = append(scratch, name)
			}
		}
		rec.check(len(scratch) == 0, "drain: scratch files left behind: %v", scratch)
	}
	return err
}

// query is one client-observed BFS point query.
type query struct {
	source    uint32
	targets   [queryTargets]uint32
	dist      [queryTargets]uint32
	latencyMS float64
	status    int
	batchSize int
	pagesRead uint64
	steps     int
}

type pointReply struct {
	BatchSize      int               `json:"batch_size"`
	Supersteps     int               `json:"supersteps"`
	BatchPagesRead uint64            `json:"batch_pages_read"`
	Dist           map[string]uint32 `json:"dist"`
	AllValues      []uint32          `json:"all_values"`
}

// post sends one JSON request and decodes a 200 reply into out.
func post(c *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// newClient is one connection: its own transport, so clients never share
// a keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
}

// readLoop is one closed-loop client: seeded random source and targets,
// next query only after the previous answered, until the deadline.
func (d *daemon) readLoop(rng *rand.Rand, until time.Time, tr *obsv.Trace) []query {
	c := newClient()
	defer c.CloseIdleConnections()
	n := int(d.g.NumVertices())
	var out []query
	for time.Now().Before(until) {
		q := query{source: uint32(rng.Intn(n))}
		for i := range q.targets {
			q.targets[i] = uint32(rng.Intn(n))
		}
		body, _ := json.Marshal(map[string]any{"source": q.source, "targets": q.targets})
		var reply pointReply
		sp := tr.Begin("bench", "http.query")
		sp.Arg("iter", int64(len(out)))
		t0 := time.Now()
		status, err := post(c, d.url+"/query/bfs", body, &reply)
		q.latencyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
		sp.End()
		if err != nil {
			status = -1
		}
		q.status = status
		if status == http.StatusOK {
			q.batchSize, q.steps, q.pagesRead = reply.BatchSize, reply.Supersteps, reply.BatchPagesRead
			for i, t := range q.targets {
				dist, ok := reply.Dist[strconv.FormatUint(uint64(t), 10)]
				if !ok {
					q.status = -2 // a 200 without the asked-for distance is a wrong answer
				}
				q.dist[i] = dist
			}
		}
		out = append(out, q)
	}
	return out
}

// mutation batches. The stream is a pure function of (seed, base graph):
// batch k adds mutateAdds fresh edges — never a base edge, never one that
// is live — and deletes the adds of batch k-mutateLag, so the live edge
// count is stationary and the final graph is known exactly.
type mutator struct {
	rng   *rand.Rand
	n     int
	taken map[graphio.Edge]bool // base edges and live adds
	live  [][]graphio.Edge      // adds of the last mutateLag acked batches, oldest first
}

func newMutator(seed int64, n uint32, base []graphio.Edge) *mutator {
	m := &mutator{rng: rand.New(rand.NewSource(seed)), n: int(n), taken: make(map[graphio.Edge]bool, len(base))}
	for _, e := range base {
		m.taken[e] = true
	}
	return m
}

type mutationJSON struct {
	Op  string `json:"op"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

// next builds the following batch and advances the window as if it were
// acknowledged (a refused batch is a failed operation and ends the run's
// correctness, so there is no rollback).
func (m *mutator) next() []mutationJSON {
	adds := make([]graphio.Edge, 0, mutateAdds)
	batch := make([]mutationJSON, 0, 2*mutateAdds)
	for len(adds) < mutateAdds {
		e := graphio.Edge{Src: uint32(m.rng.Intn(m.n)), Dst: uint32(m.rng.Intn(m.n))}
		if e.Src == e.Dst || m.taken[e] {
			continue
		}
		m.taken[e] = true
		adds = append(adds, e)
		batch = append(batch, mutationJSON{"add", e.Src, e.Dst})
	}
	m.live = append(m.live, adds)
	if len(m.live) > mutateLag {
		for _, e := range m.live[0] {
			delete(m.taken, e)
			batch = append(batch, mutationJSON{"del", e.Src, e.Dst})
		}
		m.live = m.live[1:]
	}
	return batch
}

// oracle is the edge list the graph must hold now: base plus live adds.
func (m *mutator) oracle(base []graphio.Edge) []graphio.Edge {
	out := append([]graphio.Edge(nil), base...)
	for _, adds := range m.live {
		out = append(out, adds...)
	}
	graphio.SortEdges(out)
	return out
}

type mutateSample struct {
	latencyMS float64 // due time -> ack
	lateMS    float64 // due time -> actually sent
	acked     int     // mutations acknowledged; 0 = refused or failed
}

// mutateLoop POSTs one batch every mutateEvery on its own connection. A
// batch is due at start+k×mutateEvery whether or not the previous one has
// been acknowledged; latency counts from the due time, so a stall charges
// the batches queued behind it.
func (d *daemon) mutateLoop(m *mutator, until time.Time, tr *obsv.Trace) []mutateSample {
	c := newClient()
	defer c.CloseIdleConnections()
	start := time.Now()
	var out []mutateSample
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * mutateEvery)
		if !due.Before(until) {
			return out
		}
		time.Sleep(time.Until(due))
		body, _ := json.Marshal(map[string]any{"mutations": m.next()})
		var reply struct {
			Acked int `json:"acked"`
		}
		sp := tr.BeginTid("bench", "http.mutate", tidMutator)
		sp.Arg("iter", int64(k))
		sent := time.Now()
		status, err := post(c, d.url+"/mutate", body, &reply)
		sp.End()
		s := mutateSample{
			latencyMS: float64(time.Since(due).Nanoseconds()) / 1e6,
			lateMS:    float64(sent.Sub(due).Nanoseconds()) / 1e6,
		}
		if err == nil && status == http.StatusOK {
			s.acked = reply.Acked
		}
		out = append(out, s)
	}
}

// phase is what one load window observed, from the clients and from the
// counters the daemon already keeps.
type phase struct {
	queries []query
	mutates []mutateSample
	elapsed time.Duration
	dev     ssd.Stats
	walFile ssd.FileStats
	cache   pagecache.Stats
	ingest  csr.IngestStats // at the end of the window
	ingest0 csr.IngestStats // at its start
	pending int             // highest PendingUpdates sampled
	allocMB float64
}

// load runs `clients` closed-loop readers (and the mutator, when m is
// non-nil) for d seconds. Spans are recorded when tr is non-nil.
func (d *daemon) load(clients int, seed int64, dur time.Duration, m *mutator, tr *obsv.Trace) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := phase{ingest0: d.g.IngestStats()}
	dev0, cache0, wal0 := d.dev.Stats(), d.cache.Stats(), d.dev.StatsByFile()["g.wal"]
	t0 := time.Now()
	until := t0.Add(dur)
	var wg sync.WaitGroup
	perClient := make([][]query, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctr := tr
			if c > 0 {
				ctr = nil // one traced timeline; the traced phases run one client
			}
			perClient[c] = d.readLoop(rand.New(rand.NewSource(seed*1000+int64(c))), until, ctr)
		}(c)
	}
	stop := make(chan struct{})
	if m != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.mutates = d.mutateLoop(m, until, tr)
		}()
		go func() { // sample the delta overlay's depth between merges
			for {
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
					if n := d.g.PendingUpdates(); n > p.pending {
						p.pending = n
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	p.elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	for _, qs := range perClient {
		p.queries = append(p.queries, qs...)
	}
	p.dev, p.cache = d.dev.Stats().Sub(dev0), d.cache.Stats().Sub(cache0)
	wal1 := d.dev.StatsByFile()["g.wal"]
	p.walFile = ssd.FileStats{PagesRead: wal1.PagesRead - wal0.PagesRead, PagesWritten: wal1.PagesWritten - wal0.PagesWritten}
	p.ingest = d.g.IngestStats()
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return p
}

func (p phase) ok() []query {
	var out []query
	for _, q := range p.queries {
		if q.status == http.StatusOK {
			out = append(out, q)
		}
	}
	return out
}

func latencies(qs []query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.latencyMS
	}
	return out
}

// tally counts every query and mutate batch of a phase as a checked
// operation: anything but a 200 with a well-formed body fails.
func (p phase) tally(rec *record) {
	for _, q := range p.queries {
		rec.check(q.status == http.StatusOK, "query from %d: status %d", q.source, q.status)
	}
	for i, s := range p.mutates {
		rec.check(s.acked > 0, "mutate batch %d was refused or failed", i)
	}
}

func (w serving) run(o options, rec *record) error {
	rec.setClients(w.clients)
	var d *daemon
	err := rec.setups(func() (genS, buildS float64, err error) {
		if d != nil { // drain and drop the previous set-up before timing the next
			if err := d.close(nil); err != nil {
				return 0, 0, err
			}
			d = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		if d, err = w.setup(o); err != nil {
			return 0, 0, err
		}
		return d.genS, d.buildS, nil
	})
	if err != nil {
		return err
	}

	var m *mutator
	if w.mixed {
		m = newMutator(o.seed, d.g.NumVertices(), d.edges)
	}
	warm := serveWarmup
	if o.quick {
		warm = 300 * time.Millisecond
	}
	d.load(w.clients, o.seed-1, warm, m, nil).tally(rec)

	var tr *obsv.Trace
	var verifyQueries []query
	if !o.trace {
		p, _ := quietly(rec, func() (phase, error) {
			p := d.load(w.clients, o.seed, o.duration(), m, nil)
			p.tally(rec)
			return p, nil
		})
		rss := peakRSSMiB()
		ok := p.ok()
		if len(ok) == 0 {
			return fmt.Errorf("%s: no query succeeded", w.name)
		}
		verifyQueries = ok
		lat, n := latencies(ok), float64(len(ok))
		rec.samples("op_p50_ms", lat)
		rec.set("op_p50_ms", median(lat))
		rec.tail("op_p95_ms", lat, 0.95)
		rec.set("ops_per_s", n/p.elapsed.Seconds())
		rec.set("storage_ms_per_op", p.dev.StorageTime().Seconds()*1e3/n)
		rec.set("pages_read_per_op", float64(p.dev.PagesRead)/n)
		rec.set("pages_written_per_op", float64(p.dev.PagesWritten)/n)
		rec.set("alloc_mb_per_op", p.allocMB/n)
		rec.set("peak_rss_mb", rss)
	} else {
		// A third of the time under the workload's own load, untraced, for
		// the counters; then one client, without and with a span around
		// every call. The one-client windows replay one query stream in the
		// order plain, traced, traced, plain, so that drift over the run
		// (caches, the Go heap) cancels out of the tracing overhead.
		third := o.duration() / 3
		p := d.load(w.clients, o.seed, third, m, nil)
		p.tally(rec)
		verifyQueries = p.ok()
		tr = obsv.NewTrace()
		var solo, traced []query
		for i, t := range []*obsv.Trace{nil, tr, tr, nil} {
			ph := d.load(1, o.seed+1+int64(i%2), third/2, m, t)
			ph.tally(rec)
			verifyQueries = append(verifyQueries, ph.ok()...)
			if t == nil {
				solo = append(solo, ph.ok()...)
			} else {
				traced = append(traced, ph.ok()...)
			}
		}
		w.layerCounters(p, rec)
		soloP50 := median(latencies(solo))
		rec.set("trace.overhead_share", ratio(median(latencies(traced))-soloP50, soloP50))
		if err := d.engineProbe(solo, soloP50, tr, rec); err != nil {
			return err
		}
	}

	// Correctness. serve_read: every returned distance against a reference
	// BFS on the base graph. serve_mixed: queries read whichever epoch was
	// current, so the check happens after quiescing — the graph must hold
	// exactly base + live adds, and BFS over HTTP must match the reference
	// on that edge list.
	current := d.edges
	if w.mixed {
		current = m.oracle(d.edges)
		got, err := d.g.CurrentEdges()
		if err != nil {
			return err
		}
		rec.check(slices.Equal(got, current), "serve_mixed: graph holds %d edges, oracle %d, or they differ", len(got), len(current))
	}
	ref := vc.NewRef(current, d.g.NumVertices())
	bfs := make(map[uint32][]uint32)
	reference := func(src uint32) []uint32 {
		if _, ok := bfs[src]; !ok {
			bfs[src] = ref.Run(&apps.BFS{Source: src}, 1<<20).Values
		}
		return bfs[src]
	}
	if w.mixed {
		c := newClient()
		rng := rand.New(rand.NewSource(o.seed + 7))
		for i := 0; i < quiesceChecks; i++ {
			src := uint32(rng.Intn(int(d.g.NumVertices())))
			body, _ := json.Marshal(map[string]any{"source": src, "values": true})
			var reply pointReply
			status, err := post(c, d.url+"/query/bfs", body, &reply)
			rec.check(err == nil && status == http.StatusOK && slices.Equal(reply.AllValues, reference(src)),
				"serve_mixed: BFS from %d after quiesce: status %d err %v, or values differ from the reference", src, status, err)
		}
		c.CloseIdleConnections()
	} else {
		for _, q := range verifyQueries {
			want := reference(q.source)
			for i, t := range q.targets {
				rec.check(q.dist[i] == want[t], "serve_read: dist(%d->%d) = %d, reference %d", q.source, t, q.dist[i], want[t])
			}
		}
	}

	if o.trace {
		// The probes run against the still-open graph, then the daemon drains.
		err := runProbes(probeInput{
			g: d.g, edges: current, memBudget: serveBudget, cachePages: d.cache.CapacityPages(),
			workers: rec.Workers, seed: o.seed, quick: o.quick,
		}, tr, rec)
		if err != nil {
			return err
		}
	}
	if err := d.close(rec); err != nil {
		return err
	}
	if o.trace {
		return writeChromeTrace(o.tracePath(w.name), w.name, resolveSpans(tr.Events()))
	}
	return nil
}

// layerCounters publishes what the untraced window says about each layer.
func (w serving) layerCounters(p phase, rec *record) {
	ok := p.ok()
	n := float64(len(ok))
	var batch, pages, steps float64
	shed := 0
	for _, q := range p.queries {
		if q.status == http.StatusServiceUnavailable {
			shed++
		}
	}
	for _, q := range ok {
		batch += float64(q.batchSize)
		pages += float64(q.pagesRead) / float64(q.batchSize)
		steps += float64(q.steps)
	}
	rec.set("serve.batch_size_mean", ratio(batch, n))
	rec.set("serve.pages_read_per_query", ratio(pages, n))
	rec.set("serve.supersteps_mean", ratio(steps, n))
	rec.set("serve.shed_share", ratio(float64(shed), float64(len(p.queries))))
	rec.tail("serve.query_p95_ms", latencies(ok), 0.95)

	if len(p.mutates) > 0 {
		var lat, late []float64
		acked := 0
		for _, s := range p.mutates {
			lat, late = append(lat, s.latencyMS), append(late, s.lateMS)
			acked += s.acked
		}
		rec.set("serve.mutate_p50_ms", median(lat))
		rec.tail("serve.mutate_p95_ms", lat, 0.95)
		rec.tail("serve.mutate_late_ms_p95", late, 0.95)
		rec.set("serve.mutations_acked_per_s", float64(acked)/p.elapsed.Seconds())

		w0, w1 := p.ingest0.WAL, p.ingest.WAL
		appends := float64(w1.Appends - w0.Appends)
		rec.set("wal.appends", appends)
		rec.set("wal.flushes", float64(w1.Flushes-w0.Flushes))
		rec.set("wal.mutations_per_flush", ratio(float64(w1.FlushedFrames-w0.FlushedFrames), float64(w1.Flushes-w0.Flushes)))
		rec.set("wal.bytes_per_mutation", ratio(float64(p.walFile.PagesWritten)*pageSize, appends))
		rec.set("csr.merges", float64(p.ingest.Merges-p.ingest0.Merges))
		rec.set("csr.pending_max", float64(p.pending))
	}

	rec.set("pagecache.hit_rate", p.cache.HitRate())
	rec.set("pagecache.evictions", float64(p.cache.Evictions))
	rec.set("pagecache.prefetch_accuracy", p.cache.PrefetchAccuracy())
	rec.set("pagecache.prefetch_dropped", float64(p.cache.PrefetchDropped))
	deviceCounters(p.dev, n, rec)
}

// engineProbe runs the sources the one-client window queried straight
// through core, configured exactly as serve's runEngine configures it, with
// the engine's spans on: serve.engine_ms_p50 is the engine's part of a
// query, and what is left of the one-client HTTP median is admission,
// the batching window, HTTP and JSON.
func (d *daemon) engineProbe(solo []query, soloP50 float64, tr *obsv.Trace, rec *record) error {
	if len(solo) > 50 {
		solo = solo[:50]
	}
	var ms, mallocs []float64
	var reports []*metrics.Report
	var m0, m1 runtime.MemStats
	for i, q := range solo {
		prog, err := apps.NewMultiBFS([]uint32{q.source})
		if err != nil {
			return err
		}
		snap := d.g.Snapshot()
		pf := pagecache.NewPrefetcher(8)
		cfg := core.Config{
			MemoryBudget: serveBudget, MaxSupersteps: 100, Cache: d.cache, Prefetcher: pf,
			RunTag: fmt.Sprintf("probe%d", i), Ephemeral: true, Scope: ssd.NewScope(), Trace: tr,
		}
		runtime.ReadMemStats(&m0)
		sp := tr.Begin("bench", "engine.run")
		sp.Arg("iter", int64(i))
		t0 := time.Now()
		res, err := core.New(snap.Graph(), cfg).RunCtx(context.Background(), prog)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		sp.End()
		runtime.ReadMemStats(&m1)
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
		pf.Close()
		snap.Release()
		if err != nil {
			return err
		}
		reports = append(reports, res.Report)
	}
	if len(reports) == 0 {
		return fmt.Errorf("engine probe: the one-client window served no query")
	}
	engine := median(ms)
	rec.set("serve.engine_ms_p50", engine)
	rec.set("serve.overhead_ms_p50", soloP50-engine)
	coreSelfTimes(resolveSpans(tr.Events()), "engine.run", rec)
	rec.set("core.allocs_per_run", median(mallocs))
	reportCounters(reports, engine/1e3, rec)
	return nil
}
