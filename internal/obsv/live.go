package obsv

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strings"
	"sync"
	"time"
)

// LiveVars are the process-wide engine gauges published over expvar under
// the "mlvc." prefix. Engines update them unconditionally — a handful of
// atomic stores per superstep — so attaching a debug listener mid-run
// (mlvc run -listen :6060) observes the run without any replumbing.
//
// Superstep, Active, EdgeLogHitRate, and MsgSkew are most-recent-superstep
// gauges; the page/message counters accumulate across every run in the
// process, which is what a long-lived server wants.
type LiveVars struct {
	Superstep      *expvar.Int   `metric:"mlvc.superstep" kind:"gauge" help:"Current superstep of the latest engine run"`
	Active         *expvar.Int   `metric:"mlvc.active_vertices" kind:"gauge" help:"Vertices processed in the latest superstep"`
	PagesRead      *expvar.Int   `metric:"mlvc.pages_read" kind:"counter" help:"Cumulative device pages read by engine runs"`
	PagesWritten   *expvar.Int   `metric:"mlvc.pages_written" kind:"counter" help:"Cumulative device pages written by engine runs"`
	MsgsSent       *expvar.Int   `metric:"mlvc.msgs_sent" kind:"counter" help:"Cumulative messages sent"`
	EdgeLogHitRate *expvar.Float `metric:"mlvc.edgelog_hit_rate" kind:"gauge" help:"Share of adjacency pages served from the edge log"`
	MsgSkew        *expvar.Float `metric:"mlvc.msg_skew" kind:"gauge" help:"Per-interval message skew (max/mean) of the latest superstep"`
	Runs           *expvar.Int   `metric:"mlvc.runs" kind:"counter" help:"Engine runs started in this process"`

	// Page-cache gauges: zero unless a run attached a cache (-cache-mb).
	CacheHitRate  *expvar.Float `metric:"mlvc.cache_hit_rate" kind:"gauge" help:"Page-cache hit rate of the latest superstep"`
	CacheResident *expvar.Int   `metric:"mlvc.cache_resident_pages" kind:"gauge" help:"Pages currently resident in the page cache"`

	// Fault-tolerance counters: cumulative across runs in the process.
	TransientFaults *expvar.Int `metric:"mlvc.transient_faults" kind:"counter" help:"Transient device faults absorbed by retry"`
	Retries         *expvar.Int `metric:"mlvc.retries" kind:"counter" help:"Retry attempts spent absorbing transient faults"`
	Checkpoints     *expvar.Int `metric:"mlvc.checkpoints" kind:"counter" help:"Checkpoints committed"`
	Resumes         *expvar.Int `metric:"mlvc.resumes" kind:"counter" help:"Runs resumed from a checkpoint"`

	// Integrity counters: cumulative across runs in the process.
	CorruptPages *expvar.Int `metric:"mlvc.corrupt_pages" kind:"counter" help:"Pages that failed checksum verification"`
	ElogHeals    *expvar.Int `metric:"mlvc.elog_heals" kind:"counter" help:"Edge-log generations healed from the CSR"`
	Rollbacks    *expvar.Int `metric:"mlvc.rollbacks" kind:"counter" help:"Runs rolled back to a checkpoint on corruption"`

	// Resource-governance counters: cumulative across runs in the process.
	Spills         *expvar.Int `metric:"mlvc.spills" kind:"counter" help:"Interval logs spilled through the external sort-group"`
	SpillBytes     *expvar.Int `metric:"mlvc.spill_bytes" kind:"counter" help:"Record bytes spilled to the device"`
	NoSpaceFaults  *expvar.Int `metric:"mlvc.no_space_faults" kind:"counter" help:"Writes that hit the disk quota"`
	Reclaims       *expvar.Int `metric:"mlvc.reclaims" kind:"counter" help:"Space-reclamation sweeps run"`
	ReclaimedBytes *expvar.Int `metric:"mlvc.reclaimed_bytes" kind:"counter" help:"Bytes freed by reclamation sweeps"`

	// Serving counters: cumulative across the daemon's lifetime. Zero in
	// one-shot CLI processes.
	QueriesServed   *expvar.Int `metric:"mlvc.queries_served" kind:"counter" help:"Queries answered successfully by the serving daemon"`
	QueriesShed     *expvar.Int `metric:"mlvc.queries_shed" kind:"counter" help:"Queries rejected at admission (queue full, shutdown, expired)"`
	QueryDeadlines  *expvar.Int `metric:"mlvc.query_deadlines" kind:"counter" help:"Queries cut by their deadline mid-run"`
	QueryErrors     *expvar.Int `metric:"mlvc.query_errors" kind:"counter" help:"Queries failed for any other reason"`
	BatchesRun      *expvar.Int `metric:"mlvc.batches_run" kind:"counter" help:"Engine executions serving queries"`
	BatchedQueries  *expvar.Int `metric:"mlvc.batched_queries" kind:"counter" help:"Queries that shared an execution with at least one other"`
	QueryPagesRead  *expvar.Int `metric:"mlvc.query_pages_read" kind:"counter" help:"Device pages read by query executions (per-query scoped)"`
	QueryPagesWrite *expvar.Int `metric:"mlvc.query_pages_written" kind:"counter" help:"Device pages written by query executions (per-query scoped)"`

	// Serving-resilience counters: cumulative across the daemon's
	// lifetime. Zero in one-shot CLI processes.
	QueriesIsolated *expvar.Int `metric:"mlvc.queries_isolated" kind:"counter" help:"Queries whose failed batch was isolated into solo re-runs"`
	QueriesRetried  *expvar.Int `metric:"mlvc.queries_retried" kind:"counter" help:"Solo re-executions spent on that isolation"`
	PanicsRecovered *expvar.Int `metric:"mlvc.panics_recovered" kind:"counter" help:"Panics contained at the serving boundaries"`
	BreakerOpens    *expvar.Int `metric:"mlvc.breaker_opens" kind:"counter" help:"Fault circuit-breaker open transitions"`
	BreakerSheds    *expvar.Int `metric:"mlvc.breaker_sheds" kind:"counter" help:"Queries shed while the breaker was open or probing"`

	// SlotIdleBytes is what the serving daemon's execution slots keep of
	// the engine working set between executions (core.Slot): it rises
	// as executions return their buffers and falls when one fails or the
	// daemon drains.
	SlotIdleBytes *expvar.Int `metric:"mlvc.slot_idle_bytes" kind:"gauge" unit:"bytes" help:"Engine working-set bytes held by idle execution slots"`

	// Streaming-ingest counters: cumulative across the process. Zero
	// unless the graph was opened for durable ingest.
	IngestMutations    *expvar.Int `metric:"mlvc.ingest_mutations" kind:"counter" help:"Edge mutations acknowledged (durable and applied)"`
	IngestBatches      *expvar.Int `metric:"mlvc.ingest_batches" kind:"counter" help:"Mutation batches acknowledged"`
	IngestBackpressure *expvar.Int `metric:"mlvc.ingest_backpressure" kind:"counter" help:"Mutation batches shed at the pending-update cap"`
	IngestErrors       *expvar.Int `metric:"mlvc.ingest_errors" kind:"counter" help:"Mutation batches failed for any other reason"`
	IngestMerges       *expvar.Int `metric:"mlvc.ingest_merges" kind:"counter" help:"Crash-atomic delta merges (WAL checkpoints)"`
	WALFlushes         *expvar.Int `metric:"mlvc.wal_flushes" kind:"counter" help:"WAL group-commit flushes"`
	WALFrames          *expvar.Int `metric:"mlvc.wal_frames" kind:"counter" help:"WAL frames made durable"`
	WALReplayed        *expvar.Int `metric:"mlvc.wal_replayed_frames" kind:"counter" help:"WAL frames replayed into the delta overlay on open"`
	WALTornTails       *expvar.Int `metric:"mlvc.wal_torn_tails" kind:"counter" help:"Torn WAL tails truncated during replay"`
	ReplicaAppliedSeq  *expvar.Int `metric:"mlvc.replica_applied_seq" kind:"gauge" help:"Highest WAL sequence number applied by this replica"`
	ReplicaLagFrames   *expvar.Int `metric:"mlvc.replica_lag_frames" kind:"gauge" help:"WAL frames this replica trails its primary by"`
	FramesShipped      *expvar.Int `metric:"mlvc.frames_shipped" kind:"counter" help:"WAL frames served to followers via /replicate"`
	Promotions         *expvar.Int `metric:"mlvc.promotions" kind:"counter" help:"Follower promotions to writable primary"`

	// Per-stage IO maps, keyed by the stable obsv.Stage names: cumulative
	// device pages each pipeline stage read and wrote across runs in the
	// process. The OpenMetrics handler exports them as labeled samples
	// (mlvc_stage_pages_read{stage="vertex"}).
	StagePagesRead    *expvar.Map `metric:"mlvc.stage_pages_read" kind:"counter" label:"stage" help:"Cumulative device pages read, by pipeline stage"`
	StagePagesWritten *expvar.Map `metric:"mlvc.stage_pages_written" kind:"counter" label:"stage" help:"Cumulative device pages written, by pipeline stage"`
}

var (
	liveOnce sync.Once
	liveVars *LiveVars
)

// Live returns the singleton gauges, registering them with expvar on first
// use. expvar panics on duplicate registration, hence the Once.
func Live() *LiveVars {
	liveOnce.Do(func() {
		liveVars = new(LiveVars)
		declare(reflect.ValueOf(liveVars).Elem())
	})
	return liveVars
}

// declare registers one expvar per field of the struct v and records its
// metadata in varMeta. A field is a metric's one declaration: its tags give
// the expvar name, the kind ("counter" or "gauge"), the help text and, for
// a map family, the label its keys populate; an optional unit tag names the
// unit, which the name must end with ("mlvc.x_bytes", unit "bytes"). A field
// missing one, or whose name does not end with its unit, panics here, at
// first use, instead of exporting as untyped.
func declare(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name := f.Tag.Get("metric")
		meta := metricMeta{help: f.Tag.Get("help"), typ: f.Tag.Get("kind"), label: f.Tag.Get("label"), unit: f.Tag.Get("unit")}
		_, isMap := v.Field(i).Interface().(*expvar.Map)
		if !strings.HasPrefix(name, "mlvc.") || meta.help == "" ||
			(meta.typ != "counter" && meta.typ != "gauge") || isMap != (meta.label != "") ||
			(meta.unit != "" && !strings.HasSuffix(name, "_"+meta.unit)) {
			panic(fmt.Sprintf("obsv: field %s needs metric:\"mlvc.…\", kind:\"counter|gauge\", help, (maps only) label and (optional) unit tags, the name ending in its unit; has `%s`", f.Name, f.Tag))
		}
		switch p := v.Field(i).Addr().Interface().(type) {
		case **expvar.Int:
			*p = expvar.NewInt(name)
		case **expvar.Float:
			*p = expvar.NewFloat(name)
		case **expvar.Map:
			*p = expvar.NewMap(name)
		default:
			panic(fmt.Sprintf("obsv: field %s is a %s, not an expvar Int, Float or Map", f.Name, f.Type))
		}
		varMeta[name] = meta
	}
}

// Serve starts an HTTP listener exposing expvar counters at /debug/vars,
// a Prometheus text exposition of the same counters at /metrics, and the
// pprof profile family at /debug/pprof/. It returns the bound address
// (useful with ":0") and a shutdown func. The server runs until the
// process exits or the shutdown func is called.
func Serve(addr string) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "mlvc debug endpoint: /debug/vars (expvar), /debug/pprof/ (profiles)")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obsv: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
