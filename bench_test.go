// Benchmarks regenerating the paper's evaluation: one benchmark per table
// or figure (see DESIGN.md's experiment index). Each runs the same
// experiment code as cmd/mlvc-bench at the Tiny dataset scale so the full
// suite completes quickly; custom metrics expose the figure's headline
// quantity (speedups, ratios, accuracy) alongside ns/op.
//
// For the recorded full-scale results, see EXPERIMENTS.md, generated with
//
//	go run ./cmd/mlvc-bench -size small -exp all
package multilogvc_test

import (
	"strconv"
	"testing"

	"multilogvc"
	"multilogvc/internal/apps"
	"multilogvc/internal/gen"
	"multilogvc/internal/harness"
	"multilogvc/internal/metrics"
	"multilogvc/internal/pagecache"
)

const benchSize = harness.Tiny

// avgColumn parses and averages one numeric table column.
func avgColumn(t *metrics.Table, col int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range t.Rows {
		v, _ := strconv.ParseFloat(row[col], 64)
		sum += v
	}
	return sum / float64(len(t.Rows))
}

// BenchmarkTable1Datasets regenerates Table I (dataset preparation +
// CSR build).
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dss, err := harness.Datasets(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		for _, ds := range dss {
			if _, err := harness.Prepare(ds, harness.EnvOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2ActiveShrink regenerates Fig 2: active vertices/edges per
// superstep of graph coloring. Reports the final superstep's active
// fraction (the paper's point: it shrinks far below 1).
func BenchmarkFig2ActiveShrink(b *testing.B) {
	var lastActive float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig2(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		last := t.Rows[len(t.Rows)-1]
		lastActive, _ = strconv.ParseFloat(last[2], 64)
	}
	b.ReportMetric(lastActive, "final-active-frac")
}

// BenchmarkFig3PageUtil regenerates Fig 3: fraction of touched pages with
// <10% utilization, averaged over apps and datasets.
func BenchmarkFig3PageUtil(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig3(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		frac = avgColumn(t, 2)
	}
	b.ReportMetric(frac, "ineff-page-frac")
}

// BenchmarkFig5aBFSSpeedup regenerates Fig 5: BFS speedup and page-ratio
// versus traversal fraction (Fig 5a/5b/5c share these runs).
func BenchmarkFig5aBFSSpeedup(b *testing.B) {
	var speedup, pageRatio float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig5(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		speedup = avgColumn(t, 2)
		pageRatio = avgColumn(t, 3)
	}
	b.ReportMetric(speedup, "speedup-vs-graphchi")
	b.ReportMetric(pageRatio, "page-ratio")
}

// fig6Bench runs the Fig 6 cross-engine comparison for one application.
func fig6Bench(b *testing.B, app string) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		runs, err := harness.Fig6Runs(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range runs {
			if r.App == app {
				sum += metrics.Speedup(r.GraphChi, r.MLVC)
				n++
			}
		}
		speedup = sum / float64(n)
	}
	b.ReportMetric(speedup, "speedup-vs-graphchi")
}

// BenchmarkFig6aPagerank .. BenchmarkFig6eRandomWalk regenerate Fig 6's
// per-application comparisons (paper averages: 1.19x, 1.65x, 1.38x,
// 3.15x, 6.00x).
func BenchmarkFig6aPagerank(b *testing.B)   { fig6Bench(b, "pagerank") }
func BenchmarkFig6bCDLP(b *testing.B)       { fig6Bench(b, "cdlp") }
func BenchmarkFig6cColoring(b *testing.B)   { fig6Bench(b, "coloring") }
func BenchmarkFig6dMIS(b *testing.B)        { fig6Bench(b, "mis") }
func BenchmarkFig6eRandomWalk(b *testing.B) { fig6Bench(b, "randomwalk") }

// BenchmarkFig7PerSuperstep regenerates Fig 7's per-superstep series
// (derived from the same runs as Fig 6).
func BenchmarkFig7PerSuperstep(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		runs, err := harness.Fig6Runs(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(harness.Fig7(runs).Rows)
	}
	b.ReportMetric(float64(rows), "series-points")
}

// BenchmarkFig8GraFBoost regenerates Fig 8: PageRank first iteration
// against the single-log baseline (paper average: 2.8x).
func BenchmarkFig8GraFBoost(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig8(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		speedup = avgColumn(t, 1)
	}
	b.ReportMetric(speedup, "speedup-vs-grafboost")
}

// BenchmarkAdaptedGraFBoostGC regenerates the §VIII adapted-GraFBoost
// graph coloring comparison (paper: 2.72x / 2.67x).
func BenchmarkAdaptedGraFBoostGC(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := harness.AdaptedGC(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		speedup = avgColumn(t, 1)
	}
	b.ReportMetric(speedup, "speedup-vs-adapted")
}

// BenchmarkFig9Prediction regenerates Fig 9: edge-log predictor accuracy
// (paper average: 34%).
func BenchmarkFig9Prediction(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig9(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		acc = avgColumn(t, 2)
	}
	b.ReportMetric(acc, "accuracy-pct")
}

// BenchmarkFig10MemScale regenerates Fig 10: MIS speedup across 1x/4x/8x
// memory budgets (paper: roughly flat, +5-10%).
func BenchmarkFig10MemScale(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig10(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		speedup = avgColumn(t, 2)
	}
	b.ReportMetric(speedup, "avg-speedup")
}

// BenchmarkAblationEdgeLog, -Combiner, -Fusing measure MultiLogVC's own
// design choices (DESIGN.md's ablation index): time with the feature off
// divided by time with it on.
func ablationBench(b *testing.B, feature string) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Ablation(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, row := range t.Rows {
			if row[1] == feature {
				v, _ := strconv.ParseFloat(row[3], 64)
				sum += v
				n++
			}
		}
		ratio = sum / float64(n)
	}
	b.ReportMetric(ratio, "off-over-on")
}

func BenchmarkAblationEdgeLog(b *testing.B)  { ablationBench(b, "edge-log") }
func BenchmarkAblationCombiner(b *testing.B) { ablationBench(b, "combiner") }
func BenchmarkAblationFusing(b *testing.B)   { ablationBench(b, "fusing") }

// BenchmarkEngineMLVCPageRank and friends measure raw engine throughput
// on one dataset (not a paper figure; useful for regression tracking).
func engineBench(b *testing.B, run func(env *harness.Env) error) {
	ds, err := harness.CFMini(benchSize)
	if err != nil {
		b.Fatal(err)
	}
	env, err := harness.Prepare(ds, harness.EnvOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineMLVCPageRank(b *testing.B) {
	engineBench(b, func(env *harness.Env) error {
		_, _, err := harness.RunMLVC(env, &apps.PageRank{}, harness.RunOpts{MaxSupersteps: 15})
		return err
	})
}

func BenchmarkEngineGraphChiPageRank(b *testing.B) {
	engineBench(b, func(env *harness.Env) error {
		_, _, err := harness.RunGraphChi(env, &apps.PageRank{}, harness.RunOpts{MaxSupersteps: 15})
		return err
	})
}

func BenchmarkEngineGraFBoostPageRank(b *testing.B) {
	engineBench(b, func(env *harness.Env) error {
		_, _, err := harness.RunGraFBoost(env, &apps.PageRank{}, harness.RunOpts{MaxSupersteps: 15})
		return err
	})
}

// BenchmarkExtendedApps measures the extension applications (SSSP/WCC/
// k-core) across engines.
func BenchmarkExtendedApps(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Extended(benchSize)
		if err != nil {
			b.Fatal(err)
		}
		speedup = avgColumn(t, 2)
	}
	b.ReportMetric(speedup, "speedup-vs-graphchi")
}

// BenchmarkRunPageRankDense is the shape of bench/'s pagerank_dense workload
// as a Go benchmark, so the message plane (mlog append, sortgroup load+sort,
// vertex processing) can be profiled with -cpuprofile/-memprofile: RMAT(14,12),
// memory budget 2 % of the edge bytes (≈200 intervals), 4 KiB pages on 8
// channels, uncached, 15 supersteps.
func BenchmarkRunPageRankDense(b *testing.B) {
	edges, err := multilogvc.RMAT(14, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	runShape(b, edges, 0, multilogvc.NewPageRank, 15)
}

// BenchmarkRunBFSFrontier is bench/'s bfs_frontier workload in the same form:
// a thin BFS frontier over ≈62 supersteps of a 512×512 small-world graph
// behind a 4 MiB page cache, smaller than the ≈6 MiB of CSR and
// values — adjacency fetch, the cache's miss path and per-superstep cost.
func BenchmarkRunBFSFrontier(b *testing.B) {
	edges, err := gen.SmallWorld(512, 512, 2048, 1)
	if err != nil {
		b.Fatal(err)
	}
	runShape(b, edges, 4, func() multilogvc.Program { return multilogvc.NewBFS(0) }, 200)
}

// runShape builds edges the way bench/'s analytics workloads do (budget 2 % of
// the edge bytes, 4 KiB pages, 8 channels, cacheMB of page cache) and times
// whole runs of prog after one untimed run has warmed the cache, whose hit
// rate over the timed runs is reported as hit%.
func runShape(b *testing.B, edges []multilogvc.Edge, cacheMB int, prog func() multilogvc.Program, steps int) {
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 4096, Channels: 8, CacheMB: cacheMB})
	if err != nil {
		b.Fatal(err)
	}
	g, err := sys.BuildGraph("g", edges, multilogvc.GraphOptions{MemoryBudget: int64(len(edges)) * 4 * 2 / 100})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		if _, err := g.Run(prog(), multilogvc.RunOptions{MaxSupersteps: steps}); err != nil {
			b.Fatal(err)
		}
	}
	run()
	var warm pagecache.Stats
	if cacheMB > 0 {
		warm = sys.Cache().Stats()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	if cacheMB > 0 {
		b.ReportMetric(100*sys.Cache().Stats().Sub(warm).HitRate(), "hit%")
	}
}
