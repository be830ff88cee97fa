// Command mlvc-bench regenerates every table and figure of the paper's
// evaluation section on scaled-down dataset analogs (see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results), and maintains
// the continuous-benchmarking snapshots CI gates on.
//
// Usage:
//
//	mlvc-bench -size small -exp all
//	mlvc-bench -size tiny  -exp fig5,fig6
//	mlvc-bench -exp all -out results.txt
//	mlvc-bench -exp fig6 -json reports/ -listen :6060
//	mlvc-bench -size small -snapshot BENCH_small.json
//	mlvc-bench -size small -check BENCH_small.json
//	mlvc-bench -size small -check BENCH_small.json -fresh fresh.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"multilogvc/internal/harness"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
)

// experiment is one registry row: the single source of truth both the
// -exp help text and the dispatch loop derive from, so adding an
// experiment is one entry here — the flag description, selection, and
// execution can never drift apart again.
type experiment struct {
	name string
	desc string
	run  func(b *benchCtx) (*metrics.Table, error)
}

// benchCtx carries the run configuration and memoizes expensive shared
// state (fig6/fig7 share one run set).
type benchCtx struct {
	size     harness.Size
	fig6Runs []harness.Fig6Result
	fig6Err  error
	fig6Done bool
}

func (b *benchCtx) sharedFig6Runs() ([]harness.Fig6Result, error) {
	if !b.fig6Done {
		b.fig6Runs, b.fig6Err = harness.Fig6Runs(b.size)
		b.fig6Done = true
	}
	return b.fig6Runs, b.fig6Err
}

var experiments = []experiment{
	{"table1", "Table I: dataset inventory", func(b *benchCtx) (*metrics.Table, error) { return harness.Table1(b.size) }},
	{"fig2", "Fig 2: active vertices/edges per superstep (coloring)", func(b *benchCtx) (*metrics.Table, error) { return harness.Fig2(b.size) }},
	{"fig3", "Fig 3: inefficiently used page fraction per app", func(b *benchCtx) (*metrics.Table, error) { return harness.Fig3(b.size) }},
	{"fig5", "Fig 5: partial-BFS speedup and page-access ratio", func(b *benchCtx) (*metrics.Table, error) { return harness.Fig5(b.size) }},
	{"fig6", "Fig 6: end-to-end speedups over GraphChi", func(b *benchCtx) (*metrics.Table, error) {
		runs, err := b.sharedFig6Runs()
		if err != nil {
			return nil, err
		}
		return harness.Fig6(runs), nil
	}},
	{"fig7", "Fig 7: per-superstep speedup over GraphChi of the fig6 runs", func(b *benchCtx) (*metrics.Table, error) {
		runs, err := b.sharedFig6Runs()
		if err != nil {
			return nil, err
		}
		return harness.Fig7(runs), nil
	}},
	{"fig8", "Fig 8: GraFBoost comparison (mergeable apps)", func(b *benchCtx) (*metrics.Table, error) { return harness.Fig8(b.size) }},
	{"adapted", "GraFBoost adapted-mode graph coloring", func(b *benchCtx) (*metrics.Table, error) { return harness.AdaptedGC(b.size) }},
	{"fig9", "Fig 9: predicted over actual inefficient pages", func(b *benchCtx) (*metrics.Table, error) { return harness.Fig9(b.size) }},
	{"fig10", "Fig 10: MIS speedup against memory budget", func(b *benchCtx) (*metrics.Table, error) { return harness.Fig10(b.size) }},
	{"ablation", "edge-log / combiner / fusing ablations", func(b *benchCtx) (*metrics.Table, error) { return harness.Ablation(b.size) }},
	{"extended", "extended app set beyond the paper", func(b *benchCtx) (*metrics.Table, error) { return harness.Extended(b.size) }},
	{"iobreakdown", "device traffic by storage structure", func(b *benchCtx) (*metrics.Table, error) { return harness.IOBreakdown(b.size) }},
	{"stageio", "device traffic by pipeline stage (serial-time attribution)", func(b *benchCtx) (*metrics.Table, error) { return harness.StageBreakdown(b.size) }},
	{"checkpoint", "checkpoint overhead at K=0/1/5", func(b *benchCtx) (*metrics.Table, error) { return harness.CheckpointOverhead(b.size) }},
	{"spill", "sort-budget spill overhead", func(b *benchCtx) (*metrics.Table, error) { return harness.SpillOverhead(b.size) }},
}

func expNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ",")
}

func expHelp() string {
	var sb strings.Builder
	sb.WriteString("comma-separated experiments (or \"all\"):\n")
	for _, e := range experiments {
		fmt.Fprintf(&sb, "  %-12s %s\n", e.name, e.desc)
	}
	return sb.String()
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"mlvc-bench:"}, args...)...)
	os.Exit(1)
}

func main() {
	size := flag.String("size", "small", "dataset scale: tiny, small, medium")
	exps := flag.String("exp", "all", expHelp())
	out := flag.String("out", "", "also write results to this file")
	csvDir := flag.String("csv", "", "also write each experiment's table as CSV into this directory")
	jsonDir := flag.String("json", "", "write every engine run's report as JSON into this directory")
	listen := flag.String("listen", "", "serve expvar live metrics (/debug/vars), OpenMetrics (/metrics), and pprof on this address (e.g. :6060)")
	cacheMB := flag.Int("cache-mb", 0, "attach a page cache of this size (MiB) to every experiment device; 0 (default) runs uncached")
	snapshot := flag.String("snapshot", "", "run the benchmark suite and write a perf snapshot (e.g. BENCH_small.json), then exit unless -exp is also set")
	check := flag.String("check", "", "diff a fresh snapshot against this baseline; exit 1 on deterministic regressions")
	freshPath := flag.String("fresh", "", "with -check: load the fresh snapshot from this file instead of re-running the suite")
	flag.Parse()

	harness.DefaultCacheMB = *cacheMB

	if *listen != "" {
		addr, _, err := obsv.Serve(*listen)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug endpoint on http://%s/debug/vars (OpenMetrics at /metrics, pprof at /debug/pprof/)\n", addr)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fatal(err)
		}
		seq := 0
		harness.ReportSink = func(r *metrics.Report) {
			seq++
			data, err := r.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "mlvc-bench: json report:", err)
				return
			}
			name := fmt.Sprintf("%04d-%s-%s-%s.json", seq, r.Engine, r.App, r.Graph)
			if err := os.WriteFile(filepath.Join(*jsonDir, name), append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "mlvc-bench: json report:", err)
			}
		}
	}

	var sz harness.Size
	switch *size {
	case "tiny":
		sz = harness.Tiny
	case "small":
		sz = harness.Small
	case "medium":
		sz = harness.Medium
	default:
		fmt.Fprintf(os.Stderr, "mlvc-bench: unknown size %q\n", *size)
		os.Exit(2)
	}

	// Snapshot / regression-gate mode.
	if *snapshot != "" || *check != "" {
		runSnapshotMode(sz, *snapshot, *check, *freshPath)
		// Snapshot mode replaces the experiment sweep unless experiments
		// were explicitly requested alongside it.
		explicitExp := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "exp" {
				explicitExp = true
			}
		})
		if !explicitExp {
			return
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if name != "all" {
			known := false
			for _, exp := range experiments {
				if exp.name == name {
					known = true
					break
				}
			}
			if !known {
				fmt.Fprintf(os.Stderr, "mlvc-bench: unknown experiment %q (known: all,%s)\n", name, expNames())
				os.Exit(2)
			}
		}
		want[name] = true
	}
	all := want["all"]

	writeCSV := func(name string, t *metrics.Table) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			fatal(err)
		}
	}

	b := &benchCtx{size: sz}
	for _, exp := range experiments {
		if !all && !want[exp.name] {
			continue
		}
		start := time.Now()
		t, err := exp.run(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlvc-bench: %s: %v\n", exp.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "%s\n(%s, generated in %.1fs)\n\n", t, *size, time.Since(start).Seconds())
		writeCSV(exp.name, t)
	}
}

// runSnapshotMode takes (or loads) a fresh benchmark snapshot, optionally
// writes it, and optionally gates it against a committed baseline.
func runSnapshotMode(sz harness.Size, snapshotPath, checkPath, freshPath string) {
	var fresh *harness.Snapshot
	var err error
	if freshPath != "" {
		fresh, err = harness.LoadSnapshot(freshPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded fresh snapshot from %s (%d entries)\n", freshPath, len(fresh.Entries))
	} else {
		start := time.Now()
		fresh, err = harness.TakeSnapshot(sz)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("benchmark suite: %d runs in %.1fs\n", len(fresh.Entries), time.Since(start).Seconds())
	}

	if snapshotPath != "" {
		if err := fresh.WriteFile(snapshotPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote snapshot %s\n", snapshotPath)
	}

	if checkPath == "" {
		return
	}
	base, err := harness.LoadSnapshot(checkPath)
	if err != nil {
		fatal(err)
	}
	d := harness.Compare(base, fresh)
	sort.Strings(d.Warnings)
	for _, w := range d.Warnings {
		fmt.Printf("WARN  %s\n", w)
	}
	sort.Strings(d.Regressions)
	for _, r := range d.Regressions {
		fmt.Printf("FAIL  %s\n", r)
	}
	if !d.OK() {
		fmt.Printf("regression gate: %d regression(s) against %s\n", len(d.Regressions), checkPath)
		os.Exit(1)
	}
	fmt.Printf("regression gate: clean against %s (%d warnings)\n", checkPath, len(d.Warnings))
}
