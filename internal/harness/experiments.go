package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/engine"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
)

// MaxSupersteps is the paper's evaluation cap.
const MaxSupersteps = 15

// Experiment is one table of the evaluation (see DESIGN.md's experiment
// index), rendered from the records of the runs it asks a Registry for.
type Experiment struct {
	Name  string
	Desc  string
	Table func(*Registry) (*metrics.Table, error)
}

// Experiments lists every table mlvc-bench can print, in print order.
var Experiments = []Experiment{
	{"table1", "Table I: dataset inventory", Table1},
	{"fig2", "Fig 2: active vertices/edges per superstep (coloring)", Fig2},
	{"fig3", "Fig 3: inefficiently used page fraction per app", Fig3},
	{"fig5", "Fig 5: partial-BFS speedup and page-access ratio", Fig5},
	{"fig6", "Fig 6: end-to-end speedups over GraphChi", func(r *Registry) (*metrics.Table, error) {
		runs, err := r.Fig6Runs()
		if err != nil {
			return nil, err
		}
		return Fig6(runs), nil
	}},
	{"fig7", "Fig 7: per-superstep speedup over GraphChi of the fig6 runs", func(r *Registry) (*metrics.Table, error) {
		runs, err := r.Fig6Runs(Fig7Apps...)
		if err != nil {
			return nil, err
		}
		return Fig7(runs), nil
	}},
	{"fig8", "Fig 8: GraFBoost comparison (mergeable apps)", Fig8},
	{"adapted", "GraFBoost adapted-mode graph coloring", AdaptedGC},
	{"fig9", "Fig 9: predicted over actual inefficient pages", Fig9},
	{"fig10", "Fig 10: MIS speedup against memory budget", Fig10},
	{"ablation", "edge-log / fusing ablations", Ablation},
	{"extended", "extended app set beyond the paper", Extended},
	{"iobreakdown", "device traffic by storage structure", IOBreakdown},
	{"stageio", "device traffic by pipeline stage (serial-time attribution)", StageBreakdown},
	{"checkpoint", "checkpoint overhead at K=0/1/5", CheckpointOverhead},
	{"spill", "sort-budget spill overhead", SpillOverhead},
}

// Table1 reproduces Table I: the dataset inventory.
func Table1(r *Registry) (*metrics.Table, error) {
	dss := r.datasets(paper...)
	t := &metrics.Table{
		Title:   "Table I: graph datasets (scaled analogs)",
		Headers: []string{"dataset", "vertices", "edges", "avg degree", "paper analog"},
	}
	analog := map[string]string{
		cfMini:  "com-friendster (124.8M v, 3.6B e, deg 29)",
		ywsMini: "YahooWebScope (1.4B v, 12.9B e, deg 9)",
	}
	for _, ds := range dss {
		t.AddRow(ds.Name, fmt.Sprint(ds.N), fmt.Sprint(len(ds.Edges)),
			metrics.F(ds.AvgDegree()), analog[ds.Name])
	}
	return t, nil
}

// Fig2 reproduces Fig 2: active vertices and active edges per superstep of
// graph coloring, as fractions of the totals.
func Fig2(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 2: active vertices/edges over supersteps (graph coloring)",
		Headers: []string{"dataset", "superstep", "active/V", "updates/E"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		rec, err := r.Get(runKey(ds, "coloring"))
		if err != nil {
			return nil, err
		}
		for _, ss := range rec.Report.Supersteps {
			t.AddRow(ds.Name, fmt.Sprint(ss.Superstep),
				metrics.F(float64(ss.Active)/float64(ds.N)),
				metrics.F(float64(ss.MsgsSent)/float64(len(ds.Edges))))
		}
	}
	return t, nil
}

// eachApp calls row with every evaluated program's MultiLogVC record, dataset
// by dataset.
func (r *Registry) eachApp(row func(ds Dataset, rep *metrics.Report)) error {
	dss := r.datasets(paper...)
	for _, ds := range dss {
		for _, app := range appSet {
			rec, err := r.Get(runKey(ds, app))
			if err != nil {
				return err
			}
			row(ds, rec.Report)
		}
	}
	return nil
}

// Fig3 reproduces Fig 3: the fraction of touched graph pages that are
// inefficiently used (>0%, <10% utilization), per application.
func Fig3(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 3: fraction of touched graph pages with <10% utilization",
		Headers: []string{"dataset", "app", "inefficient/touched"},
	}
	return t, r.eachApp(func(ds Dataset, rep *metrics.Report) {
		frac := 0.0
		if rep.UtilPagesTouched > 0 {
			frac = float64(rep.InefficientPages) / float64(rep.UtilPagesTouched)
		}
		t.AddRow(ds.Name, rep.App, metrics.F(frac))
	})
}

// Fig5 reproduces Fig 5a/5b/5c: BFS runs that stop after traversing a
// given fraction of the graph, reporting speedup over GraphChi, the
// page-access ratio, and MultiLogVC's storage-time share.
func Fig5(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: "Fig 5: BFS vs traversal fraction (a: speedup, b: page ratio, c: storage share)",
		Headers: []string{"dataset", "fraction", "speedup", "page ratio",
			"mlvc storage%", "graphchi storage%"},
	}
	runs, err := r.fig5Runs()
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		t.AddRow(run.Dataset, metrics.F(run.Fraction),
			metrics.F(metrics.Speedup(run.GraphChi, run.MLVC)),
			metrics.F(metrics.PageRatio(run.GraphChi, run.MLVC)),
			metrics.F(run.MLVC.StorageFraction()*100),
			metrics.F(run.GraphChi.StorageFraction()*100))
	}
	return t, nil
}

// Fig5Result carries both engines' reports for one dataset and traversal
// fraction of Fig 5.
type Fig5Result struct {
	Dataset  string
	Fraction float64
	MLVC     *metrics.Report
	GraphChi *metrics.Report
}

// Fig5Runs executes BFS to each traversal fraction on both engines, dataset
// by dataset with the fractions ascending.
func Fig5Runs(size Size) ([]Fig5Result, error) { return NewRegistry(size).fig5Runs() }

func (r *Registry) fig5Runs() ([]Fig5Result, error) {
	// The web-frontier analog resolves traversal fractions into distinct
	// stopping supersteps; the power-law analogs are reported too, but
	// their tiny diameter clumps the fractions (a scale artifact).
	dss := r.datasets(webFrontier, cfMini, ywsMini)
	var out []Fig5Result
	for _, ds := range dss {
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			k := runKey(ds, "bfs")
			k.Steps, k.Stop = 256, frac
			ml, gc, err := r.versus(k, engine.GraphChi)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig5Result{Dataset: ds.Name, Fraction: frac, MLVC: ml, GraphChi: gc})
		}
	}
	return out, nil
}

// Fig6Result carries one app's cross-engine reports for Fig 6/7.
type Fig6Result struct {
	Dataset  string
	App      string
	MLVC     *metrics.Report
	GraphChi *metrics.Report
}

// Fig6Runs executes every application on both engines.
func Fig6Runs(size Size) ([]Fig6Result, error) { return NewRegistry(size).Fig6Runs() }

// Fig6Runs reads every application on both engines, or only the named
// applications when any are given.
func (r *Registry) Fig6Runs(apps ...string) ([]Fig6Result, error) {
	if len(apps) == 0 {
		apps = appSet
	}
	dss := r.datasets(paper...)
	var out []Fig6Result
	for _, ds := range dss {
		for _, app := range apps {
			ml, gc, err := r.versus(runKey(ds, app), engine.GraphChi)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig6Result{Dataset: ds.Name, App: app, MLVC: ml, GraphChi: gc})
		}
	}
	return out, nil
}

// Fig6 reproduces Fig 6: per-application speedup over GraphChi.
func Fig6(runs []Fig6Result) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fig 6: application speedup over GraphChi (storage plus host compute time)",
		Headers: []string{"dataset", "app", "speedup", "page ratio", "supersteps"},
	}
	for _, r := range runs {
		t.AddRow(r.Dataset, r.App,
			metrics.F(metrics.Speedup(r.GraphChi, r.MLVC)),
			metrics.F(metrics.PageRatio(r.GraphChi, r.MLVC)),
			fmt.Sprint(len(r.MLVC.Supersteps)))
	}
	return t
}

// Fig7Apps are the iterative applications Fig 7 plots.
var Fig7Apps = []string{"pagerank", "cdlp", "coloring", "mis"}

// Fig7 reproduces Fig 7: per-superstep speedup series for the iterative
// applications.
func Fig7(runs []Fig6Result) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fig 7: per-superstep speedup over GraphChi",
		Headers: []string{"dataset", "app", "superstep", "speedup"},
	}
	for _, r := range runs {
		if !slices.Contains(Fig7Apps, r.App) {
			continue
		}
		n := min(len(r.MLVC.Supersteps), len(r.GraphChi.Supersteps))
		for i := 0; i < n; i++ {
			mlT := r.MLVC.Supersteps[i].Total()
			gcT := r.GraphChi.Supersteps[i].Total()
			sp := 0.0
			if mlT > 0 {
				sp = float64(gcT) / float64(mlT)
			}
			t.AddRow(r.Dataset, r.App, fmt.Sprint(i), metrics.F(sp))
		}
	}
	return t
}

// Fig8 reproduces Fig 8: PageRank against GraFBoost. Following §VIII, the
// comparison covers the first iteration (GraFBoost cannot load only
// active graph data), here the first two supersteps so the log sort is
// exercised.
func Fig8(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 8: MultiLogVC speedup over GraFBoost (pagerank, first iteration)",
		Headers: []string{"dataset", "speedup", "page ratio"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		k := runKey(ds, "pagerank")
		k.Steps = 2
		ml, gb, err := r.versus(k, engine.GraFBoost)
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.Name, metrics.F(metrics.Speedup(gb, ml)), metrics.F(metrics.PageRatio(gb, ml)))
	}
	return t, nil
}

// AdaptedGC reproduces the §VIII adapted-GraFBoost comparison: graph
// coloring against a single-log engine that must keep every message.
func AdaptedGC(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Adapted GraFBoost: graph coloring speedup (paper: 2.72x CF, 2.67x YWS)",
		Headers: []string{"dataset", "speedup"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		ml, gb, err := r.versus(runKey(ds, "coloring"), engine.GraFBoostAdapted)
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.Name, metrics.F(metrics.Speedup(gb, ml)))
	}
	return t, nil
}

// Fig9 reproduces Fig 9: edge-log predictor accuracy — the share of each
// superstep's inefficient pages that had been predicted (paper avg: 34%).
func Fig9(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 9: predicted inefficient pages / actual inefficient pages",
		Headers: []string{"dataset", "app", "accuracy%"},
	}
	return t, r.eachApp(func(ds Dataset, rep *metrics.Report) {
		var correct, ineff uint64
		for _, ss := range rep.Supersteps[1:] { // superstep 0 has no history
			correct += ss.CorrectPredicted
			ineff += ss.InefficientPages
		}
		acc := 0.0
		if ineff > 0 {
			acc = 100 * float64(correct) / float64(ineff)
		}
		t.AddRow(ds.Name, rep.App, metrics.F(acc))
	})
}

// Fig10 reproduces Fig 10: MIS speedup over GraphChi as the memory budget
// scales 1x/4x/8x (the paper's 1/4/8 GB).
func Fig10(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 10: MIS speedup vs memory budget",
		Headers: []string{"dataset", "budget x", "speedup"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		for _, mult := range []int64{1, 4, 8} {
			// Smaller pages keep shard window blocks well above the page
			// size at every budget, as on the paper's real hardware where
			// shards are hundreds of MB; otherwise the ×1 budget would
			// punish GraphChi with page-rounding the paper never saw.
			k := runKey(ds, "mis")
			k.PageSize, k.Budget = 1024, DefaultBudget(ds)*mult
			ml, gc, err := r.versus(k, engine.GraphChi)
			if err != nil {
				return nil, err
			}
			t.AddRow(ds.Name, fmt.Sprint(mult), metrics.F(metrics.Speedup(gc, ml)))
		}
	}
	return t, nil
}

// Ablation measures the engine's own design choices, the edge log and
// interval fusing, by running each with the feature off and on. A row
// shows what the device model sees (pages and storage time) on both sides,
// then the off/on ratio of storage plus host compute time; a row whose
// pages and storage match says the feature has no modeled effect, so its
// ratio is host-time noise.
func Ablation(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: "Ablation: MultiLogVC design choices (feature off against on)",
		Headers: []string{"dataset", "feature", "app", "pages r/w off", "storage off",
			"pages r/w on", "storage on", "off/on (storage+host)", "note"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		for _, v := range []struct {
			feature, app string
			noEdgeLog    bool
		}{
			{"edge-log", "bfs", true},
			{"edge-log", "randomwalk", true},
			{"fusing", "pagerank", false},
		} {
			on := runKey(ds, v.app)
			off := on
			off.NoEdgeLog, off.NoFusing = v.noEdgeLog, !v.noEdgeLog
			onRec, err := r.Get(on)
			if err != nil {
				return nil, err
			}
			offRec, err := r.Get(off)
			if err != nil {
				return nil, err
			}
			onRep, offRep := onRec.Report, offRec.Report
			ratio := 0.0
			if onRep.TotalTime() > 0 {
				ratio = float64(offRep.TotalTime()) / float64(onRep.TotalTime())
			}
			offPages := fmt.Sprintf("%d/%d", offRep.PagesRead, offRep.PagesWritten)
			onPages := fmt.Sprintf("%d/%d", onRep.PagesRead, onRep.PagesWritten)
			note := ""
			if offPages == onPages && offRep.StorageTime == onRep.StorageTime {
				note = "no modeled effect"
			}
			t.AddRow(ds.Name, v.feature, v.app,
				offPages, metrics.D(offRep.StorageTime), onPages, metrics.D(onRep.StorageTime),
				metrics.F(ratio), note)
		}
	}
	return t, nil
}

// Extended measures the extension applications (SSSP over weighted
// graphs, WCC, k-core) across engines — not paper figures, but the same
// cross-engine protocol applied to the framework's added surface.
func Extended(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Extended apps: speedup over GraphChi (SSSP weighted, WCC, k-core)",
		Headers: []string{"dataset", "app", "speedup", "page ratio"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		// WCC and k-core on the unweighted graph, SSSP on the weighted one.
		for _, app := range []string{"wcc", "kcore", "sssp"} {
			k := runKey(ds, app)
			k.Weighted = app == "sssp"
			ml, gc, err := r.versus(k, engine.GraphChi)
			if err != nil {
				return nil, err
			}
			t.AddRow(ds.Name, app,
				metrics.F(metrics.Speedup(gc, ml)),
				metrics.F(metrics.PageRatio(gc, ml)))
		}
	}
	return t, nil
}

// IOBreakdown attributes MultiLogVC's device traffic to its storage
// structures (CSR graph data, update logs, edge log, vertex values, aux
// state) using the device's per-file counters — the kind of analysis the
// paper's Fig 4 memory-layout discussion implies. The graph and values
// cells include the CSR build's traffic.
func IOBreakdown(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "MultiLogVC IO by structure (pages read+written)",
		Headers: []string{"dataset", "app", "graph", "update logs", "edge log", "values", "aux"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		for _, app := range []string{"bfs", "cdlp"} {
			rec, err := r.Get(runKey(ds, app))
			if err != nil {
				return nil, err
			}
			row := []string{ds.Name, app}
			for _, s := range []string{"graph", "mlog", "elog", "values", "aux"} {
				row = append(row, fmt.Sprint(rec.Structures[s]))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// StageBreakdown attributes PageRank's device traffic to the pipeline
// stages the engine tagged it with (vertex processing, sort+group, relog,
// checkpoint, spill) — the serial-time decomposition that tells
// you which stage an optimization must target. A final "(compute)" row
// reports the host-side time not spent on the virtual device, so the
// stage shares sum to a complete picture of where a superstep goes.
func StageBreakdown(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Per-stage IO breakdown (pagerank, MultiLogVC)",
		Headers: []string{"dataset", "stage", "pages r", "pages w", "device time", "share"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		rec, err := r.Get(runKey(ds, "pagerank"))
		if err != nil {
			return nil, err
		}
		rep := rec.Report
		total := float64(rep.StorageTime)
		for _, st := range rep.Stages {
			share := "-"
			if total > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(st.Time)/total)
			}
			t.AddRow(ds.Name, st.Stage,
				fmt.Sprint(st.PagesRead), fmt.Sprint(st.PagesWritten),
				metrics.D(st.Time), share)
		}
		// Host-side compute time (wall), reported beside the virtual device
		// time the same way Report.TotalTime composes them.
		t.AddRow(ds.Name, "(compute)", "-", "-", metrics.D(rep.ComputeTime), "-")
	}
	return t, nil
}

// CheckpointOverhead measures the cost of superstep checkpointing:
// PageRank with no checkpoints, checkpoints every superstep (K=1), and
// every fifth superstep (K=5). Overhead is the increase in total virtual
// device time relative to the K=0 baseline.
func CheckpointOverhead(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Checkpoint overhead (pagerank)",
		Headers: []string{"dataset", "K", "ckpts", "ckpt pages", "pages w", "ckpt time", "storage", "overhead"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		var base float64
		for _, every := range []int{0, 1, 5} {
			k := runKey(ds, "pagerank")
			k.CheckpointEvery = every
			rec, err := r.Get(k)
			if err != nil {
				return nil, err
			}
			rep := rec.Report
			storage := float64(rep.StorageTime)
			overhead := "-"
			if every == 0 {
				base = storage
			} else if base > 0 {
				overhead = fmt.Sprintf("+%.1f%%", 100*(storage-base)/base)
			}
			t.AddRow(ds.Name, fmt.Sprint(every), fmt.Sprint(rep.Checkpoints),
				fmt.Sprint(rep.CheckpointPages), fmt.Sprint(rep.PagesWritten),
				metrics.D(rep.CheckpointTime), metrics.D(rep.StorageTime), overhead)
		}
	}
	return t, nil
}

// SpillOverhead measures the sort-budget spill path: PageRank with an
// unconstrained sort budget against sort budgets that force a growing
// share of interval logs through the external sort-group. Values are
// asserted bit-identical, so the table reports pure overhead: extra pages
// written (sorted runs), extra storage time, and the spill volume.
func SpillOverhead(r *Registry) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Sort-budget spill overhead (pagerank)",
		Headers: []string{"dataset", "budget", "spills", "spill MB", "pages w", "storage", "overhead"},
	}
	dss := r.datasets(paper...)
	for _, ds := range dss {
		var base float64
		var want []uint32
		for _, budget := range []int64{0, 64 << 10, 8 << 10, 1 << 10} {
			k := runKey(ds, "pagerank")
			k.SortBudget = budget
			rec, err := r.Get(k)
			if err != nil {
				return nil, err
			}
			rep := rec.Report
			if budget == 0 {
				want = rec.Values
			} else if !slices.Equal(rec.Values, want) {
				return nil, fmt.Errorf("spill run (budget %d) diverged from the unbounded run on %s", budget, ds.Name)
			}
			storage := float64(rep.StorageTime)
			overhead := "-"
			label := "unbounded"
			if budget == 0 {
				base = storage
			} else {
				label = fmt.Sprintf("%dK", budget>>10)
				if base > 0 {
					overhead = fmt.Sprintf("%+.1f%%", 100*(storage-base)/base)
				}
			}
			t.AddRow(ds.Name, label, fmt.Sprint(rep.Spills),
				fmt.Sprintf("%.2f", float64(rep.SpillBytes)/(1<<20)),
				fmt.Sprint(rep.PagesWritten), metrics.D(rep.StorageTime), overhead)
		}
	}
	return t, nil
}

// ingestApp names the durable-ingest benchmark shape in snapshots: the
// fixed mutation stream through the sync-flushed WAL plus one merge.
const ingestApp = "ingest-wal"

// ingestStream fixes the benchmark's mutation stream so every run of the
// same binary applies the identical sequence: 96 batches of 32
// mutations, one in four a delete.
func ingestStream(n uint32) [][]csr.Mutation {
	rng := rand.New(rand.NewSource(7))
	batches := make([][]csr.Mutation, 96)
	for b := range batches {
		batches[b] = randMutations(rng, n, 32, 4)
	}
	return batches
}

// runIngestBench streams the fixed mutation sequence into a freshly
// built, uncached copy of ds through the sync-flushed WAL, folds it down
// with one crash-atomic merge, and returns the device traffic and wall
// time of both. A non-empty dir backs the device with files there.
func runIngestBench(ds Dataset, dir string) (ssd.Stats, time.Duration, error) {
	env, err := Prepare(ds, EnvOptions{CacheMB: -1, Dir: dir})
	if err != nil {
		return ssd.Stats{}, 0, err
	}
	g, err := csr.OpenIngest(env.Dev, ds.Name, csr.IngestOptions{WAL: true, MergeThreshold: 1 << 30})
	if err != nil {
		return ssd.Stats{}, 0, err
	}
	st0 := env.Dev.Stats()
	start := time.Now()
	for _, batch := range ingestStream(ds.N) {
		// Explicit huge threshold: no mid-stream merges, so the stream
		// pays for the single fold at the end.
		if err := g.ApplyMutations(batch, 1<<30); err != nil {
			return ssd.Stats{}, 0, err
		}
	}
	if err := g.MergeInterval(0); err != nil {
		return ssd.Stats{}, 0, err
	}
	st, wall := env.Dev.Stats().Sub(st0), time.Since(start)
	return st, wall, g.CloseIngest()
}
