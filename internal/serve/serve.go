// Package serve is the query-serving daemon behind cmd/mlvcd: one
// resident graph, one device and page cache, many concurrent point
// queries. It is the serving counterpart of the one-shot CLI — the shape
// the paper's motivation (§VII, concurrent analytics on one flash
// device) implies but never builds.
//
// Three mechanisms carry the design:
//
//   - Multi-source batching: compatible point queries (same app) that
//     wait for the same execution slot coalesce into ONE lane-batched
//     engine execution (apps.MultiSource: NewMultiBFS or NewMultiSSSP), so
//     K queued BFS queries cost one pass over the logs instead of K; a
//     query that finds a slot free runs at once, alone, as a batch of one.
//     Per-lane results are bit-identical to K individual runs — batching
//     is invisible to callers except in latency and shared IO.
//
//   - Isolation: every execution gets its own RunTag scratch namespace,
//     an Ephemeral config (scratch removed even on failure), and an
//     ssd.IOScope so its page traffic is attributed to the query rather
//     than smeared device-wide.
//
//   - Admission control: MaxConcurrent execution slots bound simultaneous
//     engine executions, a queue cap sheds excess load with structured
//     503s, per-query deadlines become context deadlines on the batch
//     (expired-on-arrival queries are shed with 504 before costing IO),
//     and device-quota exhaustion surfaces as 507 — the serving face of
//     PR 5's resource governance.
package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/failure"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

// Options configures a Server. Graph is required; everything else has a
// serving-sane default.
type Options struct {
	// Graph is the resident graph every query runs against.
	Graph *csr.Graph
	// Cache is ignored: an inert shell kept only because bench/ still
	// sets it (ROADMAP item 11 deletes it). Queries use the page cache
	// attached to the graph's device, if any.
	Cache *pagecache.Cache
	// MaxBatch caps queries per execution — how many that waited for the
	// same execution slot may share it; defaults to 16, clamped to
	// apps.MaxLanes (the packed-message format's limit).
	MaxBatch int
	// MaxConcurrent bounds simultaneous engine executions; defaults to 2.
	MaxConcurrent int
	// MaxQueue caps queries admitted but not yet executing; beyond it
	// requests are shed with 503. Defaults to 64.
	MaxQueue int
	// DefaultDeadline applies when a query names none. Defaults to 30s.
	DefaultDeadline time.Duration
	// MaxSupersteps bounds each execution; defaults to 100.
	MaxSupersteps int
	// MemoryBudget is the per-execution engine budget; 0 keeps the
	// engine default (64 MiB).
	MemoryBudget int64

	// BreakerWindow is the fault circuit breaker's sliding window in
	// query outcomes; defaults to 32.
	BreakerWindow int
	// BreakerThreshold is the windowed fault rate that opens the
	// breaker; defaults to 0.5.
	BreakerThreshold float64
	// BreakerMinSamples is the minimum outcomes before the breaker may
	// open; defaults to 8.
	BreakerMinSamples int
	// BreakerCooldown is how long an open breaker sheds before admitting
	// half-open probes; defaults to 5s.
	BreakerCooldown time.Duration
	// BreakerProbes is the half-open concurrency (and the consecutive
	// successes required to close); defaults to 2.
	BreakerProbes int

	// EnableIngest registers POST /mutate, the streaming-ingest endpoint,
	// and GET /replicate, the WAL-shipping endpoint followers tail. The
	// graph should be opened with csr.OpenIngest for durability; without
	// it mutations apply volatile (lost on restart), and without a WAL
	// (OpenIngest with WAL: true) /replicate answers not_ready.
	EnableIngest bool
	// ReadOnly starts the server rejecting /mutate with a structured
	// read_only error — follower mode. Cleared by promotion.
	ReadOnly bool

	// FaultControl registers POST /debug/fault, the cross-process
	// fault control surface. Testing only.
	FaultControl bool
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxBatch > apps.MaxLanes {
		o.MaxBatch = apps.MaxLanes
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 30 * time.Second
	}
	if o.MaxSupersteps <= 0 {
		o.MaxSupersteps = 100
	}
	return o
}

// Server is the query daemon: an http.Handler plus the batching and
// admission machinery behind it. Create with New, mount anywhere (or let
// cmd/mlvcd listen), and Close for a graceful drain.
type Server struct {
	opts Options
	g    *csr.Graph
	dev  *ssd.Device
	mux  *http.ServeMux

	// slots are the MaxConcurrent execution slots: a batch or a walk runs
	// while it holds one.
	slots chan struct{}

	runSeq  atomic.Uint64 // RunTag sequence: q1, q2, ...
	queued  atomic.Int64  // admitted-not-finished queries, vs MaxQueue
	closed  atomic.Bool   // shutting down: shed new queries
	started time.Time     // for /healthz uptime
	wg      sync.WaitGroup

	brk  *breaker // fault circuit breaker (health model)
	bfs  *batcher
	sssp *batcher

	// readOnly rejects /mutate (follower mode); promotion clears it.
	readOnly atomic.Bool
	// fol is the replication follower, set once by StartFollower.
	fol atomic.Pointer[Follower]

	// testBatchHook, when set by an in-package test, runs at the top of
	// every batch execution (after the admission slot is held) — the
	// injection point for panic-containment tests.
	testBatchHook func(kind string, batchSize int)
}

// New builds a Server over a resident graph.
func New(opts Options) (*Server, error) {
	if opts.Graph == nil {
		return nil, fmt.Errorf("serve: Options.Graph is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		g:       opts.Graph,
		dev:     opts.Graph.Device(),
		slots:   make(chan struct{}, opts.MaxConcurrent),
		started: time.Now(),
	}
	s.readOnly.Store(opts.ReadOnly)
	s.brk = newBreaker(breakerConfig{
		window:     opts.BreakerWindow,
		threshold:  opts.BreakerThreshold,
		minSamples: opts.BreakerMinSamples,
		cooldown:   opts.BreakerCooldown,
		probes:     opts.BreakerProbes,
	}, func() { obsv.Live().BreakerOpens.Add(1) })
	s.bfs = &batcher{s: s, kind: "bfs", newProg: apps.NewMultiBFS}
	s.sssp = &batcher{s: s, kind: "sssp", newProg: apps.NewMultiSSSP}

	mux := http.NewServeMux()
	mux.HandleFunc("/query/bfs", func(w http.ResponseWriter, r *http.Request) { s.handlePoint(w, r, s.bfs) })
	mux.HandleFunc("/query/sssp", func(w http.ResponseWriter, r *http.Request) { s.handlePoint(w, r, s.sssp) })
	mux.HandleFunc("/walk", s.handleWalk)
	if opts.EnableIngest {
		mux.HandleFunc("/mutate", s.handleMutate)
		mux.HandleFunc("/replicate", s.handleReplicate)
	}
	mux.HandleFunc("/admin/promote", s.handlePromote)
	mux.HandleFunc("/graph", s.handleGraph)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if opts.FaultControl {
		mux.HandleFunc("/debug/fault", s.handleFault)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", obsv.MetricsHandler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeError(w, failure.NotFound, "no such endpoint")
			return
		}
		usage := "mlvcd: POST /query/bfs /query/sssp /walk; GET /graph /stats /healthz /readyz /metrics /debug/vars"
		if s.opts.EnableIngest {
			usage = "mlvcd: POST /query/bfs /query/sssp /walk /mutate; GET /graph /stats /healthz /readyz /metrics /debug/vars" +
				"; replication: GET /replicate, POST /admin/promote"
		}
		fmt.Fprintln(w, usage)
	})
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler, containing handler panics: net/http
// would keep the process alive anyway, but it aborts the connection with
// no body — this boundary turns the panic into the same structured
// internal error every other failure wears, and counts it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			obsv.Live().PanicsRecovered.Add(1)
			// Best-effort: if the handler already wrote a header this is
			// a no-op body on a torn response, which is all that can be
			// promised mid-panic.
			writeError(w, failure.Internal,
				fmt.Sprintf("panic in request handler: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// maxBatch returns the effective MaxBatch, shrunk 4× under brownout: while
// the breaker suspects the device, smaller batches mean fewer co-batched
// victims per faulty execution and cheaper solo isolation when one does
// fault.
func (s *Server) maxBatch() int {
	if s.brk.brownout() {
		return max(s.opts.MaxBatch/4, 1)
	}
	return s.opts.MaxBatch
}

// Close drains the server: new queries are shed with 503, queries already
// pending still get their slot and run, and Close returns once every
// dispatcher and in-flight execution has finished.
func (s *Server) Close() {
	// Flip closed under both batcher locks: an enqueue either saw it, or has
	// already counted its dispatcher into wg before the Wait below.
	s.bfs.mu.Lock()
	s.sssp.mu.Lock()
	already := s.closed.Swap(true)
	s.sssp.mu.Unlock()
	s.bfs.mu.Unlock()
	if already {
		return
	}
	if f := s.fol.Load(); f != nil {
		f.Stop()
	}
	s.wg.Wait()
}

// pointRequest is the JSON body of POST /query/bfs and /query/sssp.
type pointRequest struct {
	// Source is the query's start vertex.
	Source uint32 `json:"source"`
	// DeadlineMS bounds the query end-to-end; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms"`
	// Targets asks for the distances of specific vertices.
	Targets []uint32 `json:"targets,omitempty"`
	// Values asks for the full per-vertex distance array (tests and
	// small graphs; large graphs should use Targets).
	Values bool `json:"values,omitempty"`
}

// pointResponse is the JSON reply of a successful point query.
type pointResponse struct {
	App        string `json:"app"`
	Source     uint32 `json:"source"`
	BatchSize  int    `json:"batch_size"`
	Supersteps int    `json:"supersteps"`
	// Isolated marks a result computed by a solo re-run after the
	// query's original batch died of a device fault.
	Isolated bool `json:"isolated,omitempty"`
	// Reached counts vertices with a finite distance (source included).
	Reached uint64 `json:"reached"`
	// BatchPagesRead/Written is the batch's scoped device IO, shared by
	// all BatchSize members — the per-query cost is this divided by the
	// batch size, which is the entire point of batching.
	BatchPagesRead    uint64            `json:"batch_pages_read"`
	BatchPagesWritten uint64            `json:"batch_pages_written"`
	Dist              map[string]uint32 `json:"dist,omitempty"`
	AllValues         []uint32          `json:"all_values,omitempty"`
	// Timings splits the request's latency, in milliseconds.
	Timings timingsMS `json:"timings_ms"`
}

// timingsMS is where one point query's time went. Wait runs from admission
// until the query's batch held an execution slot; Engine is the engine
// execution that produced the answer (the solo re-run for an isolated
// query, whose failed batch run is then part of Total only); Total runs
// from handler entry until the response is encoded. Total − Wait − Engine
// is decode, admission, fan-out and result extraction.
type timingsMS struct {
	Wait   float64 `json:"wait"`
	Engine float64 `json:"engine"`
	Total  float64 `json:"total"`
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRequestDeadline caps a request's deadline_ms. Beyond any query's run
// time, and far below the ~9.2e12 ms at which the conversion to
// nanoseconds overflows into a deadline in the past.
const maxRequestDeadline = 24 * time.Hour

// requestDeadline turns a request's deadline_ms into an absolute deadline:
// def when ms names none (<= 0), and at most maxRequestDeadline from now.
func requestDeadline(ms int64, def time.Duration) time.Time {
	d := def
	if ms > int64(maxRequestDeadline/time.Millisecond) {
		d = maxRequestDeadline
	} else if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return time.Now().Add(d)
}

// admit runs the admission steps every query passes, in order: drain,
// deadline, queue cap, breaker. On refusal it writes the shed reply and
// returns false. On admission the query holds a queue place, which the
// caller gives back with s.queued.Add(-1) once it is done; the breaker
// gates last, so a query it admits is recorded exactly once at its final
// resolution and half-open probe accounting stays balanced.
func (s *Server) admit(w http.ResponseWriter, deadline time.Time) bool {
	live := obsv.Live()
	if s.closed.Load() {
		live.QueriesShed.Add(1)
		writeError(w, failure.ShuttingDown, "server is draining")
		return false
	}
	if !deadline.After(time.Now()) {
		live.QueriesShed.Add(1)
		writeError(w, failure.Deadline, "deadline expired before admission")
		return false
	}
	if s.queued.Add(1) > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		live.QueriesShed.Add(1)
		writeError(w, failure.Overloaded,
			fmt.Sprintf("query queue full (%d)", s.opts.MaxQueue))
		return false
	}
	if ok, retryAfter := s.brk.admit(); !ok {
		s.queued.Add(-1)
		live.QueriesShed.Add(1)
		live.BreakerSheds.Add(1)
		writeErrorRetry(w, failure.BreakerOpen,
			"fault circuit breaker is open; device faults are being shed", retryAfter)
		return false
	}
	return true
}

// handlePoint admits one point query into b and waits for its lane result.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request, b *batcher) {
	entered := time.Now()
	live := obsv.Live()
	if r.Method != http.MethodPost {
		writeError(w, failure.MethodNotAllowed, "POST required")
		return
	}
	var req pointRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, failure.BadRequest, "invalid JSON: "+err.Error())
		return
	}
	n := s.g.NumVertices()
	if req.Source >= n {
		writeError(w, failure.BadRequest,
			fmt.Sprintf("source %d out of range (graph has %d vertices)", req.Source, n))
		return
	}
	for _, t := range req.Targets {
		if t >= n {
			writeError(w, failure.BadRequest,
				fmt.Sprintf("target %d out of range (graph has %d vertices)", t, n))
			return
		}
	}
	deadline := requestDeadline(req.DeadlineMS, s.opts.DefaultDeadline)
	if !s.admit(w, deadline) {
		return
	}
	defer s.queued.Add(-1)

	q := &pointQuery{source: req.Source, deadline: deadline, admitted: time.Now(), done: make(chan pointResult, 1)}
	if err := b.enqueue(q); err != nil {
		s.brk.record(outcomeNeutral)
		live.QueriesShed.Add(1)
		writeError(w, failure.ShuttingDown, "server is draining")
		return
	}

	select {
	case <-r.Context().Done():
		// Client gone; the batch still runs (its companions want it) and
		// the buffered done channel absorbs the orphaned result.
		return
	case res := <-q.done:
		if res.err != nil {
			f := failure.Of(res.err)
			switch f {
			case failure.Deadline:
				live.QueryDeadlines.Add(1)
			case failure.ShuttingDown:
				live.QueriesShed.Add(1)
			default:
				live.QueryErrors.Add(1)
			}
			writeError(w, f, res.err.Error())
			return
		}
		live.QueriesServed.Add(1)
		resp := pointResponse{
			App:               b.kind,
			Source:            req.Source,
			BatchSize:         res.batchSize,
			Supersteps:        res.supersteps,
			Isolated:          res.isolated,
			BatchPagesRead:    res.pagesRead,
			BatchPagesWritten: res.pagesWritten,
		}
		for _, d := range res.values {
			if d != apps.Inf {
				resp.Reached++
			}
		}
		if len(req.Targets) > 0 {
			resp.Dist = make(map[string]uint32, len(req.Targets))
			for _, t := range req.Targets {
				resp.Dist[strconv.FormatUint(uint64(t), 10)] = res.values[t]
			}
		}
		if req.Values {
			resp.AllValues = res.values
		}
		resp.Timings = timingsMS{Wait: ms(q.wait), Engine: ms(res.engine), Total: ms(time.Since(entered))}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleGraph reports the resident graph's shape.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"name":           s.g.Name(),
		"vertices":       s.g.NumVertices(),
		"edges":          s.g.NumEdges(),
		"intervals":      len(s.g.Intervals()),
		"weighted":       s.g.HasWeights(),
		"max_out_degree": s.g.MaxOutDegree(),
		"page_size":      s.dev.PageSize(),
	})
}

// handleStats reports device totals plus the serving counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	live := obsv.Live()
	st := s.dev.Stats()
	out := map[string]interface{}{
		"device": map[string]uint64{
			"pages_read":    st.PagesRead,
			"pages_written": st.PagesWritten,
		},
		"serving": map[string]int64{
			"queries_served":      live.QueriesServed.Value(),
			"queries_shed":        live.QueriesShed.Value(),
			"query_deadlines":     live.QueryDeadlines.Value(),
			"query_errors":        live.QueryErrors.Value(),
			"queries_isolated":    live.QueriesIsolated.Value(),
			"queries_retried":     live.QueriesRetried.Value(),
			"panics_recovered":    live.PanicsRecovered.Value(),
			"breaker_opens":       live.BreakerOpens.Value(),
			"breaker_sheds":       live.BreakerSheds.Value(),
			"batches_run":         live.BatchesRun.Value(),
			"batched_queries":     live.BatchedQueries.Value(),
			"query_pages_read":    live.QueryPagesRead.Value(),
			"query_pages_written": live.QueryPagesWrite.Value(),
		},
		"breaker":         s.brk.snapshot(),
		"brownout":        s.brk.brownout(),
		"queued":          s.queued.Load(),
		"max_concurrent":  s.opts.MaxConcurrent,
		"slot_idle_bytes": live.SlotIdleBytes.Value(),
		"read_only":       s.readOnly.Load(),
	}
	if f := s.fol.Load(); f != nil {
		st := f.status()
		out["role"] = st.Role
		out["replica"] = st
	} else {
		out["role"] = "primary"
	}
	ist := s.g.IngestStats()
	out["ingest"] = map[string]interface{}{
		"pending_updates":    ist.Pending,
		"epoch":              ist.Epoch,
		"merges":             ist.Merges,
		"pinned_snapshots":   ist.Pins,
		"durable":            ist.Durable,
		"batches_acked":      live.IngestBatches.Value(),
		"mutations_acked":    live.IngestMutations.Value(),
		"backpressure_sheds": live.IngestBackpressure.Value(),
		"errors":             live.IngestErrors.Value(),
		"wal_appends":        ist.WAL.Appends,
		"wal_flushes":        ist.WAL.Flushes,
		"wal_replayed":       ist.WAL.Replayed,
		"wal_torn_tails":     ist.WAL.TornTails,
		"wal_truncates":      ist.WAL.Truncates,
		"wal_durable_bytes":  ist.WAL.DurableBytes,
		"wal_last_seq":       ist.WAL.LastSeq,
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
