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
	"slices"
	"sort"
	"strings"
	"time"

	"multilogvc/internal/harness"
	"multilogvc/internal/obsv"
)

func expNames() string {
	names := make([]string, len(harness.Experiments))
	for i, e := range harness.Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ",")
}

func expHelp() string {
	var sb strings.Builder
	sb.WriteString("comma-separated experiments (or \"all\"):\n")
	for _, e := range harness.Experiments {
		fmt.Fprintf(&sb, "  %-12s %s\n", e.Name, e.Desc)
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
	jsonDir := flag.String("json", "", "write every executed engine run's report as JSON into this directory")
	listen := flag.String("listen", "", "serve expvar live metrics (/debug/vars), OpenMetrics (/metrics), and pprof on this address (e.g. :6060)")
	cacheMB := flag.Int("cache-mb", 0, "attach a page cache of this size (MiB) to every run the requested experiments execute; 0 (default) runs uncached")
	snapshot := flag.String("snapshot", "", "run the benchmark suite and write a perf snapshot (e.g. BENCH_small.json), then exit unless -exp is also set")
	check := flag.String("check", "", "diff a fresh snapshot against this baseline; exit 1 on deterministic regressions")
	freshPath := flag.String("fresh", "", "with -check: load the fresh snapshot from this file instead of re-running the suite")
	flag.Parse()

	if *listen != "" {
		addr, _, err := obsv.Serve(*listen)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug endpoint on http://%s/debug/vars (OpenMetrics at /metrics, pprof at /debug/pprof/)\n", addr)
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

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if name != "all" && !slices.ContainsFunc(harness.Experiments, func(x harness.Experiment) bool { return x.Name == name }) {
			fmt.Fprintf(os.Stderr, "mlvc-bench: unknown experiment %q (known: all,%s)\n", name, expNames())
			os.Exit(2)
		}
		want[name] = true
	}

	// One registry serves the snapshot and the tables, so a run both need
	// is executed once.
	reg := harness.NewRegistry(sz)
	tables := true
	if *snapshot != "" || *check != "" {
		runSnapshotMode(reg, *snapshot, *check, *freshPath)
		// Snapshot mode replaces the experiment sweep unless experiments
		// were explicitly requested alongside it.
		tables = false
		flag.Visit(func(f *flag.Flag) { tables = tables || f.Name == "exp" })
	}
	if tables {
		runTables(reg, want, *size, *cacheMB, *out, *csvDir)
	}
	if *jsonDir != "" {
		writeReports(reg, *jsonDir)
	}
}

// runTables prints every wanted experiment's table, reading its runs
// through reg with cacheMB as the cache of each, and copies the tables to
// outPath and csvDir when set.
func runTables(reg *harness.Registry, want map[string]bool, size string, cacheMB int, outPath, csvDir string) {
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	for _, exp := range harness.Experiments {
		if !want["all"] && !want[exp.Name] {
			continue
		}
		start := time.Now()
		t, err := reg.Table(exp, cacheMB)
		if err != nil {
			fatal(exp.Name+":", err)
		}
		fmt.Fprintf(w, "%s\n(%s, generated in %.1fs)\n\n", t, size, time.Since(start).Seconds())
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(csvDir, exp.Name+".csv"), []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}

// writeReports writes every run reg executed as one numbered JSON report
// in dir, in execution order.
func writeReports(reg *harness.Registry, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for i, rec := range reg.Records() {
		r := rec.Report
		data, err := r.JSON()
		if err != nil {
			fatal("json report:", err)
		}
		name := fmt.Sprintf("%04d-%s-%s-%s.json", i+1, r.Engine, r.App, r.Graph)
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			fatal("json report:", err)
		}
	}
}

// runSnapshotMode takes (or loads) a fresh benchmark snapshot, optionally
// writes it, and optionally gates it against a committed baseline.
func runSnapshotMode(reg *harness.Registry, snapshotPath, checkPath, freshPath string) {
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
		fresh, err = reg.Snapshot()
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
