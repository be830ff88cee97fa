package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/engine"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// MaxSupersteps is the paper's evaluation cap.
const MaxSupersteps = 15

// versus runs prog with o on MultiLogVC, then on the baseline, over env.
func (env *Env) versus(baseline engine.Kind, prog vc.Program, o engine.Options) (ml, base *metrics.Report, err error) {
	o.Engine = engine.MultiLog
	if ml, _, err = env.Run(prog, o); err != nil {
		return nil, nil, err
	}
	o.Engine = baseline
	if base, _, err = env.Run(prog, o); err != nil {
		return nil, nil, err
	}
	return ml, base, nil
}

// AppSet returns the six evaluated programs tuned for a dataset of n
// vertices: random-walk sampling is scaled so walker density matches the
// paper's every-1000th-vertex sampling on billion-vertex graphs.
func AppSet(n uint32) []vc.Program {
	sample := n / 64
	if sample == 0 {
		sample = 1
	}
	return []vc.Program{
		&apps.BFS{Source: 0},
		&apps.PageRank{},
		&apps.CDLP{},
		&apps.Coloring{},
		&apps.MIS{Seed: 42},
		&apps.RandomWalk{SampleEvery: sample, WalkLength: 10, Seed: 42},
	}
}

// Table1 reproduces Table I: the dataset inventory.
func Table1(size Size) (*metrics.Table, error) {
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   "Table I: graph datasets (scaled analogs)",
		Headers: []string{"dataset", "vertices", "edges", "avg degree", "paper analog"},
	}
	analog := map[string]string{
		"cf-mini":  "com-friendster (124.8M v, 3.6B e, deg 29)",
		"yws-mini": "YahooWebScope (1.4B v, 12.9B e, deg 9)",
	}
	for _, ds := range dss {
		t.AddRow(ds.Name, fmt.Sprint(ds.N), fmt.Sprint(len(ds.Edges)),
			metrics.F(ds.AvgDegree()), analog[ds.Name])
	}
	return t, nil
}

// Fig2 reproduces Fig 2: active vertices and active edges per superstep of
// graph coloring, as fractions of the totals.
func Fig2(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 2: active vertices/edges over supersteps (graph coloring)",
		Headers: []string{"dataset", "superstep", "active/V", "updates/E"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		rep, _, err := env.Run(&apps.Coloring{}, engine.Options{MaxSupersteps: MaxSupersteps})
		if err != nil {
			return nil, err
		}
		for _, ss := range rep.Supersteps {
			t.AddRow(ds.Name, fmt.Sprint(ss.Superstep),
				metrics.F(float64(ss.Active)/float64(ds.N)),
				metrics.F(float64(ss.MsgsSent)/float64(len(ds.Edges))))
		}
	}
	return t, nil
}

// Fig3 reproduces Fig 3: the fraction of touched graph pages that are
// inefficiently used (>0%, <10% utilization), per application.
func Fig3(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 3: fraction of touched graph pages with <10% utilization",
		Headers: []string{"dataset", "app", "inefficient/touched"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		for _, prog := range AppSet(ds.N) {
			rep, _, err := env.Run(prog, engine.Options{MaxSupersteps: MaxSupersteps})
			if err != nil {
				return nil, err
			}
			frac := 0.0
			if rep.UtilPagesTouched > 0 {
				frac = float64(rep.InefficientPages) / float64(rep.UtilPagesTouched)
			}
			t.AddRow(ds.Name, prog.Name(), metrics.F(frac))
		}
	}
	return t, nil
}

// Fig5 reproduces Fig 5a/5b/5c: BFS runs that stop after traversing a
// given fraction of the graph, reporting speedup over GraphChi, the
// page-access ratio, and MultiLogVC's storage-time share.
func Fig5(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: "Fig 5: BFS vs traversal fraction (a: speedup, b: page ratio, c: storage share)",
		Headers: []string{"dataset", "fraction", "speedup", "page ratio",
			"mlvc storage%", "graphchi storage%"},
	}
	runs, err := Fig5Runs(size)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		t.AddRow(r.Dataset, metrics.F(r.Fraction),
			metrics.F(metrics.Speedup(r.GraphChi, r.MLVC)),
			metrics.F(metrics.PageRatio(r.GraphChi, r.MLVC)),
			metrics.F(r.MLVC.StorageFraction()*100),
			metrics.F(r.GraphChi.StorageFraction()*100))
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
func Fig5Runs(size Size) ([]Fig5Result, error) {
	wf, err := WebFrontier(size)
	if err != nil {
		return nil, err
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	var out []Fig5Result
	// The web-frontier analog resolves traversal fractions into distinct
	// stopping supersteps; the power-law analogs are reported too, but
	// their tiny diameter clumps the fractions (a scale artifact).
	for _, ds := range append([]Dataset{wf}, dss...) {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			target := uint64(frac * float64(ds.N))
			stop := func(step int, cum uint64) bool { return cum >= target }
			ml, gc, err := env.versus(engine.GraphChi, &apps.BFS{Source: 0},
				engine.Options{MaxSupersteps: 256, StopAfter: stop})
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
func Fig6Runs(size Size) ([]Fig6Result, error) {
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	var out []Fig6Result
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		for _, prog := range AppSet(ds.N) {
			ml, gc, err := env.versus(engine.GraphChi, prog, engine.Options{MaxSupersteps: MaxSupersteps})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig6Result{Dataset: ds.Name, App: prog.Name(), MLVC: ml, GraphChi: gc})
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

// Fig7 reproduces Fig 7: per-superstep speedup series for the iterative
// applications.
func Fig7(runs []Fig6Result) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fig 7: per-superstep speedup over GraphChi",
		Headers: []string{"dataset", "app", "superstep", "speedup"},
	}
	want := map[string]bool{"pagerank": true, "cdlp": true, "coloring": true, "mis": true}
	for _, r := range runs {
		if !want[r.App] {
			continue
		}
		n := len(r.MLVC.Supersteps)
		if m := len(r.GraphChi.Supersteps); m < n {
			n = m
		}
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
func Fig8(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 8: MultiLogVC speedup over GraFBoost (pagerank, first iteration)",
		Headers: []string{"dataset", "speedup", "page ratio"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		ml, gb, err := env.versus(engine.GraFBoost, &apps.PageRank{}, engine.Options{MaxSupersteps: 2})
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.Name, metrics.F(metrics.Speedup(gb, ml)), metrics.F(metrics.PageRatio(gb, ml)))
	}
	return t, nil
}

// AdaptedGC reproduces the §VIII adapted-GraFBoost comparison: graph
// coloring against a single-log engine that must keep every message.
func AdaptedGC(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Adapted GraFBoost: graph coloring speedup (paper: 2.72x CF, 2.67x YWS)",
		Headers: []string{"dataset", "speedup"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		ml, gb, err := env.versus(engine.GraFBoostAdapted, &apps.Coloring{}, engine.Options{MaxSupersteps: MaxSupersteps})
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.Name, metrics.F(metrics.Speedup(gb, ml)))
	}
	return t, nil
}

// Fig9 reproduces Fig 9: edge-log predictor accuracy — the share of each
// superstep's inefficient pages that had been predicted (paper avg: 34%).
func Fig9(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 9: predicted inefficient pages / actual inefficient pages",
		Headers: []string{"dataset", "app", "accuracy%"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		for _, prog := range AppSet(ds.N) {
			rep, _, err := env.Run(prog, engine.Options{MaxSupersteps: MaxSupersteps})
			if err != nil {
				return nil, err
			}
			var correct, ineff uint64
			for _, ss := range rep.Supersteps[1:] { // superstep 0 has no history
				correct += ss.CorrectPredicted
				ineff += ss.InefficientPages
			}
			acc := 0.0
			if ineff > 0 {
				acc = 100 * float64(correct) / float64(ineff)
			}
			t.AddRow(ds.Name, prog.Name(), metrics.F(acc))
		}
	}
	return t, nil
}

// Fig10 reproduces Fig 10: MIS speedup over GraphChi as the memory budget
// scales 1x/4x/8x (the paper's 1/4/8 GB).
func Fig10(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig 10: MIS speedup vs memory budget",
		Headers: []string{"dataset", "budget x", "speedup"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		base := int64(0)
		for _, mult := range []int64{1, 4, 8} {
			// Smaller pages keep shard window blocks well above the page
			// size at every budget, as on the paper's real hardware where
			// shards are hundreds of MB; otherwise the ×1 budget would
			// punish GraphChi with page-rounding the paper never saw.
			env, err := Prepare(ds, EnvOptions{MemBudget: base * mult, PageSize: 1024})
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = env.MemBudget // resolved default
				env, err = Prepare(ds, EnvOptions{MemBudget: base, PageSize: 1024})
				if err != nil {
					return nil, err
				}
			}
			ml, gc, err := env.versus(engine.GraphChi, &apps.MIS{Seed: 42}, engine.Options{MaxSupersteps: MaxSupersteps})
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
func Ablation(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: "Ablation: MultiLogVC design choices (feature off against on)",
		Headers: []string{"dataset", "feature", "app", "pages r/w off", "storage off",
			"pages r/w on", "storage on", "off/on (storage+host)", "note"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		type variant struct {
			feature string
			prog    vc.Program
			off     engine.Options
		}
		sample := ds.N / 64
		if sample == 0 {
			sample = 1
		}
		variants := []variant{
			{"edge-log", &apps.BFS{Source: 0}, engine.Options{DisableEdgeLog: true}},
			{"edge-log", &apps.RandomWalk{SampleEvery: sample, WalkLength: 10, Seed: 42}, engine.Options{DisableEdgeLog: true}},
			{"fusing", &apps.PageRank{}, engine.Options{DisableFusing: true}},
		}
		for _, v := range variants {
			on := engine.Options{MaxSupersteps: MaxSupersteps}
			off := v.off
			off.MaxSupersteps = MaxSupersteps
			onRep, _, err := env.Run(v.prog, on)
			if err != nil {
				return nil, err
			}
			offRep, _, err := env.Run(v.prog, off)
			if err != nil {
				return nil, err
			}
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
			t.AddRow(ds.Name, v.feature, v.prog.Name(),
				offPages, metrics.D(offRep.StorageTime), onPages, metrics.D(onRep.StorageTime),
				metrics.F(ratio), note)
		}
	}
	return t, nil
}

// Extended measures the extension applications (SSSP over weighted
// graphs, WCC, k-core) across engines — not paper figures, but the same
// cross-engine protocol applied to the framework's added surface.
func Extended(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Extended apps: speedup over GraphChi (SSSP weighted, WCC, k-core)",
		Headers: []string{"dataset", "app", "speedup", "page ratio"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		// WCC and k-core on the unweighted graph.
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		for _, prog := range []vc.Program{&apps.WCC{}, &apps.KCore{K: 4}} {
			ml, gc, err := env.versus(engine.GraphChi, prog, engine.Options{MaxSupersteps: MaxSupersteps})
			if err != nil {
				return nil, err
			}
			t.AddRow(ds.Name, prog.Name(),
				metrics.F(metrics.Speedup(gc, ml)),
				metrics.F(metrics.PageRatio(gc, ml)))
		}

		// SSSP on the weighted variant (symmetric pseudo-random weights).
		wedges := graphio.AttachWeights(ds.Edges, func(s, d uint32) uint32 {
			if s > d {
				s, d = d, s
			}
			return uint32(vc.Hash64(uint64(s), uint64(d))%16) + 1
		})
		wenv, err := Prepare(ds, EnvOptions{}, wedges...)
		if err != nil {
			return nil, err
		}
		prog := &apps.SSSP{Source: 0}
		ml, gc, err := wenv.versus(engine.GraphChi, prog, engine.Options{MaxSupersteps: MaxSupersteps})
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.Name, prog.Name(),
			metrics.F(metrics.Speedup(gc, ml)),
			metrics.F(metrics.PageRatio(gc, ml)))
	}
	return t, nil
}

// IOBreakdown attributes MultiLogVC's device traffic to its storage
// structures (CSR graph data, update logs, edge log, vertex values, aux
// state) using the device's per-file counters — the kind of analysis the
// paper's Fig 4 memory-layout discussion implies.
func IOBreakdown(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "MultiLogVC IO by structure (pages read+written)",
		Headers: []string{"dataset", "app", "graph", "update logs", "edge log", "values", "aux"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	classify := func(name string) string {
		switch {
		case strings.Contains(name, ".mlog."):
			return "mlog"
		case strings.Contains(name, ".elog"):
			return "elog"
		case strings.Contains(name, ".values"):
			return "values"
		case strings.Contains(name, ".aux."):
			return "aux"
		case strings.Contains(name, ".rowptr.") || strings.Contains(name, ".colidx.") || strings.Contains(name, ".val."):
			return "graph"
		default:
			return "other"
		}
	}
	for _, ds := range dss {
		for _, prog := range []vc.Program{&apps.BFS{Source: 0}, &apps.CDLP{}} {
			env, err := Prepare(ds, EnvOptions{})
			if err != nil {
				return nil, err
			}
			if _, _, err := env.Run(prog, engine.Options{MaxSupersteps: MaxSupersteps}); err != nil {
				return nil, err
			}
			sums := map[string]uint64{}
			for name, st := range env.Dev.StatsByFile() {
				sums[classify(name)] += st.PagesRead + st.PagesWritten
			}
			t.AddRow(ds.Name, prog.Name(),
				fmt.Sprint(sums["graph"]), fmt.Sprint(sums["mlog"]),
				fmt.Sprint(sums["elog"]), fmt.Sprint(sums["values"]),
				fmt.Sprint(sums["aux"]))
		}
	}
	return t, nil
}

// CheckpointOverhead measures the cost of superstep checkpointing:
// PageRank with no checkpoints, checkpoints every superstep (K=1), and
// every fifth superstep (K=5). Overhead is the increase in total virtual
// device time relative to the K=0 baseline.
func CheckpointOverhead(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Checkpoint overhead (pagerank)",
		Headers: []string{"dataset", "K", "ckpts", "ckpt pages", "pages w", "ckpt time", "storage", "overhead"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		var base float64
		for _, every := range []int{0, 1, 5} {
			env, err := Prepare(ds, EnvOptions{})
			if err != nil {
				return nil, err
			}
			rep, _, err := env.Run(&apps.PageRank{},
				engine.Options{MaxSupersteps: MaxSupersteps, CheckpointEvery: every})
			if err != nil {
				return nil, err
			}
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
func SpillOverhead(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Sort-budget spill overhead (pagerank)",
		Headers: []string{"dataset", "budget", "spills", "spill MB", "pages w", "storage", "overhead"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		var base float64
		var want []uint32
		for _, budget := range []int64{0, 64 << 10, 8 << 10, 1 << 10} {
			env, err := Prepare(ds, EnvOptions{})
			if err != nil {
				return nil, err
			}
			rep, got, err := env.Run(&apps.PageRank{},
				engine.Options{MaxSupersteps: MaxSupersteps, SortBudget: budget})
			if err != nil {
				return nil, err
			}
			if budget == 0 {
				want = got
			} else {
				for v := range want {
					if got[v] != want[v] {
						return nil, fmt.Errorf("spill run (budget %d) diverged at vertex %d on %s", budget, v, ds.Name)
					}
				}
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
