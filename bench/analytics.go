package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"multilogvc"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// analytics is a batch workload: one whole-graph program run to
// completion, over and over, on a graph built once per set-up.
type analytics struct {
	name     string
	generate func(seed int64, quick bool) ([]multilogvc.Edge, error)
	program  func() multilogvc.Program
	maxSteps int
	cacheMB  int // 0 = uncached
	warmups  int
	minRuns  int // timed runs, at least
}

// pagerankDense keeps every vertex active every superstep: one message
// per edge through mlog.Append -> sortgroup.Load -> processBatch, fifteen
// times. Uncached, so device pages are a pure function of the graph.
var pagerankDense = analytics{
	name: "pagerank_dense",
	generate: func(seed int64, quick bool) ([]multilogvc.Edge, error) {
		if quick {
			return multilogvc.RMAT(10, 8, seed)
		}
		return multilogvc.RMAT(14, 12, seed)
	},
	program:  multilogvc.NewPageRank,
	maxSteps: 15,
	warmups:  1,
	minRuns:  11,
}

// bfsFrontier walks a thin frontier over tens of supersteps with a page
// cache smaller than the graph: adjacency fetch, relogging, value batches,
// eviction and prefetch carry the time, the sort carries almost none.
var bfsFrontier = analytics{
	name: "bfs_frontier",
	generate: func(seed int64, quick bool) ([]multilogvc.Edge, error) {
		if quick {
			return gen.SmallWorld(48, 48, 64, seed)
		}
		return gen.SmallWorld(512, 512, 2048, seed)
	},
	program:  func() multilogvc.Program { return multilogvc.NewBFS(0) },
	maxSteps: 200,
	cacheMB:  4,
	warmups:  2,
	minRuns:  11,
}

// memoryBudget is 2 % of the CSR's edge bytes (4 per directed edge), the
// rule both analytics workloads size their ~200 vertex intervals with.
func memoryBudget(edges int) int64 {
	b := int64(edges) * 4 * 2 / 100
	if b < 16<<10 {
		b = 16 << 10
	}
	return b
}

type analyticsEnv struct {
	edges  []multilogvc.Edge
	sys    *multilogvc.System
	g      *multilogvc.Graph
	budget int64
	genS   float64
	buildS float64
}

func (a analytics) setup(o options) (*analyticsEnv, error) {
	t0 := time.Now()
	edges, err := a.generate(o.seed, o.quick)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: pageSize, Channels: channels, CacheMB: a.cacheMB})
	if err != nil {
		return nil, err
	}
	budget := memoryBudget(len(edges))
	g, err := sys.BuildGraph("g", edges, multilogvc.GraphOptions{MemoryBudget: budget})
	if err != nil {
		return nil, err
	}
	return &analyticsEnv{edges: edges, sys: sys, g: g, budget: budget,
		genS: genS, buildS: time.Since(t0).Seconds() - genS}, nil
}

// runSample is one complete Graph.Run as seen from outside the engine.
type runSample struct {
	wallS   float64
	dev     ssd.Stats // device delta over the run
	allocMB float64
	mallocs float64
	report  *multilogvc.Report
	values  []uint32
}

func (a analytics) once(env *analyticsEnv, tr *obsv.Trace, iter int) (runSample, error) {
	// Every run starts from a collected heap, as a fresh `mlvc run` would:
	// otherwise where the previous run left the collector's pacing decides
	// how many cycles this one pays for, and the runs of one process settle
	// into a fast or a slow mode some 15 % apart.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d0 := env.sys.Device().Stats()
	sp := tr.Begin("bench", "run")
	sp.Arg("iter", int64(iter))
	t0 := time.Now()
	res, err := env.g.Run(a.program(), multilogvc.RunOptions{MaxSupersteps: a.maxSteps, Trace: tr})
	wall := time.Since(t0)
	sp.End()
	if err != nil {
		return runSample{}, err
	}
	runtime.ReadMemStats(&m1)
	return runSample{
		wallS:   wall.Seconds(),
		dev:     env.sys.Device().Stats().Sub(d0),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		report:  res.Report,
		values:  res.Values,
	}, nil
}

// measure repeats once until both the duration and the run count are met.
func (a analytics) measure(env *analyticsEnv, tr *obsv.Trace, d time.Duration, minRuns int) ([]runSample, error) {
	var out []runSample
	t0 := time.Now()
	for len(out) < minRuns || time.Since(t0) < d {
		s, err := a.once(env, tr, len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func column(samples []runSample, f func(runSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func (a analytics) run(o options, rec *record) error {
	rec.setClients(1)
	var env *analyticsEnv
	err := rec.setups(func() (genS, buildS float64, err error) {
		env = nil // drop the previous set-up before timing the next
		runtime.GC()
		debug.FreeOSMemory()
		if env, err = a.setup(o); err != nil {
			return 0, 0, err
		}
		return env.genS, env.buildS, nil
	})
	if err != nil {
		return err
	}

	warm, minRuns := a.warmups, a.minRuns
	if o.quick {
		warm, minRuns = 1, 3
	}
	if _, err := a.measure(env, nil, 0, warm); err != nil {
		return err
	}
	var first []uint32 // the values every run must reproduce
	verify := func(samples []runSample) {
		for _, s := range samples {
			if first == nil {
				first = s.values
			}
			rec.check(slices.Equal(s.values, first), "%s: run values differ between runs", a.name)
		}
	}

	if !o.trace {
		samples, err := quietly(rec, func() ([]runSample, error) {
			return a.measure(env, nil, o.duration(), minRuns)
		})
		if err != nil {
			return err
		}
		rss := peakRSSMiB()
		verify(samples)
		walls := column(samples, func(s runSample) float64 { return s.wallS * 1e3 })
		rec.samples("op_p50_ms", walls)
		rec.set("op_p50_ms", median(walls))
		// Tens of runs of one input have no tail: no percentile above the
		// median leaves ten samples beyond it, so the tail repeats it.
		rec.set("op_p95_ms", median(walls))
		rec.set("ops_per_s", 1e3/mean(walls))
		e2e := func(name string, f func(runSample) float64) {
			xs := column(samples, f)
			rec.samples(name, xs)
			rec.set(name, median(xs))
		}
		e2e("storage_ms_per_op", func(s runSample) float64 { return s.dev.StorageTime().Seconds() * 1e3 })
		e2e("pages_read_per_op", func(s runSample) float64 { return float64(s.dev.PagesRead) })
		e2e("pages_written_per_op", func(s runSample) float64 { return float64(s.dev.PagesWritten) })
		e2e("alloc_mb_per_op", func(s runSample) float64 { return s.allocMB })
		rec.set("peak_rss_mb", rss)
	} else {
		if minRuns > 3 {
			minRuns = 3
		}
		third := o.duration() / 3
		plain, err := a.measure(env, nil, third, minRuns)
		if err != nil {
			return err
		}
		tr := obsv.NewTrace()
		traced, err := a.measure(env, tr, third, minRuns)
		if err != nil {
			return err
		}
		verify(plain)
		verify(traced)
		a.layerCounters(plain, rec)
		spans := resolveSpans(tr.Events())
		coreSelfTimes(spans, "run", rec)
		untraced := median(column(plain, func(s runSample) float64 { return s.wallS }))
		rec.set("trace.overhead_share",
			ratio(median(column(traced, func(s runSample) float64 { return s.wallS }))-untraced, untraced))

		g, err := csr.Open(env.sys.Device(), "g")
		if err != nil {
			return err
		}
		cachePages := 0
		if c := env.sys.Cache(); c != nil {
			cachePages = c.CapacityPages()
		}
		err = runProbes(probeInput{
			g: g, edges: env.edges, memBudget: env.budget, cachePages: cachePages,
			workers: rec.Workers, seed: o.seed, quick: o.quick,
		}, tr, rec)
		if err != nil {
			return err
		}
		if err := writeChromeTrace(o.tracePath(a.name), a.name, resolveSpans(tr.Events())); err != nil {
			return err
		}
	}

	want := vc.NewRef(env.edges, env.g.NumVertices()).Run(a.program(), a.maxSteps).Values
	rec.check(slices.Equal(first, want), "%s: final values differ from the in-memory reference", a.name)
	return nil
}

// layerCounters reads the counters the engine already exposes for the
// untraced runs: the run report, its stage table and the device delta.
func (a analytics) layerCounters(samples []runSample, rec *record) {
	last := samples[len(samples)-1]
	rep := last.report
	rec.set("core.allocs_per_run", median(column(samples, func(s runSample) float64 { return s.mallocs })))
	reports := make([]*multilogvc.Report, len(samples))
	for i, s := range samples {
		reports[i] = s.report
	}
	reportCounters(reports, median(column(samples, func(s runSample) float64 { return s.wallS })), rec)

	rec.set("pagecache.hit_rate", rep.CacheHitRate())
	rec.set("pagecache.evictions", float64(rep.CacheEvictions))
	rec.set("pagecache.prefetch_accuracy", rep.PrefetchAccuracy())
	rec.set("pagecache.prefetch_dropped", float64(rep.PrefetchDropped))
	deviceCounters(last.dev, 1, rec)
}

// reportCounters publishes what the engine's run reports say about core
// and the edge log, as medians over the runs; wallS is the host time of a
// run like them.
func reportCounters(reps []*multilogvc.Report, wallS float64, rec *record) {
	vals := make(map[string][]float64)
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for _, rep := range reps {
		var delivered, active, elogRead, colidx uint64
		for _, ss := range rep.Supersteps {
			delivered += ss.MsgsDelivered
			active += ss.Active
			elogRead += ss.EdgeLogPagesRead
			colidx += ss.ColIdxPagesRead
		}
		add("core.compute_s", rep.ComputeTime.Seconds())
		add("core.modeled_s", rep.TotalTime().Seconds())
		add("core.supersteps", float64(len(rep.Supersteps)))
		add("core.msgs_delivered", float64(delivered))
		add("core.mmsgs_per_s", ratio(float64(delivered)/1e6, wallS))
		add("core.active_vertices", float64(active))
		stages := map[string]float64{"vertex": 0, "sortgroup": 0, "relog": 0, "spill": 0, "prefetch": 0}
		relogWritten := 0.0
		for _, st := range rep.Stages {
			if _, ok := stages[st.Stage]; ok {
				stages[st.Stage] = float64(st.PagesRead + st.PagesWritten)
			}
			if st.Stage == "relog" {
				relogWritten = float64(st.PagesWritten)
			}
		}
		for stage, pages := range stages {
			add("core.stage_"+stage+"_pages", pages)
		}
		add("edgelog.pages_read", float64(elogRead))
		add("edgelog.pages_written", relogWritten)
		add("edgelog.share_of_adj_pages", ratio(float64(elogRead), float64(elogRead+colidx)))
	}
	for name, xs := range vals {
		rec.set(name, median(xs))
	}
}

// deviceCounters publishes a device delta, divided over ops operations.
func deviceCounters(d ssd.Stats, ops float64, rec *record) {
	rec.set("ssd.pages_read", float64(d.PagesRead)/ops)
	rec.set("ssd.pages_written", float64(d.PagesWritten)/ops)
	rec.set("ssd.read_batch_pages_mean", d.ReadBatchPages.Mean())
	rec.set("ssd.virtual_us_per_page_read", ratio(float64(d.ReadTime.Microseconds()), float64(d.PagesRead)))
	rec.set("ssd.retries", float64(d.Retries)/ops)
}

// coreSelfTimes splits the traced runs' time over the engine's stages.
// Each root span named rootName is one run; every reported value is the
// median over the runs. core.setup_ms is the run minus its supersteps.
func coreSelfTimes(spans []span, rootName string, rec *record) {
	stageOf := map[string]string{
		"load+sort":        "core.load_sort_s",
		"load-values":      "core.load_values_s",
		"load-adjacency":   "core.load_adjacency_s",
		"process-vertices": "core.process_vertices_s",
		"edgelog-relog":    "core.relog_s",
		"flush-values":     "core.flush_s",
		"flush-logs":       "core.flush_s",
	}
	perRun := make(map[string][]float64)
	for i, s := range spans {
		if s.Name != rootName || s.Cat != "bench" {
			continue
		}
		self := selfTimeUnder(spans, i)
		sums := make(map[string]float64)
		for name, metric := range stageOf {
			sums[metric] += self[name].Seconds()
		}
		setup := s.Dur
		for _, c := range spans {
			if c.Name == "superstep" && c.Parent == i {
				setup -= c.Dur
			}
		}
		sums["core.setup_ms"] = setup.Seconds() * 1e3
		for metric, v := range sums {
			perRun[metric] = append(perRun[metric], v)
		}
	}
	for metric, xs := range perRun {
		rec.set(metric, median(xs))
	}
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func (o options) tracePath(workload string) string {
	return fmt.Sprintf("%s/%s.trace.json", o.outDir, workload)
}
