// Command bench is the repository's performance benchmark: two
// batch-analytics and two mlvcd serving workloads, end-to-end metrics with
// regression bounds (BENCHMARK.json) and per-layer counters and probes.
// It touches no engine code: layers are measured from outside. See
// README.md in this directory.
//
//	bash bench/run.sh                            all workloads -> bench/out/results.json
//	bash bench/run.sh -workload serve_read       one workload, untraced (end-to-end metrics)
//	bash bench/run.sh -workload serve_read -trace 1   traced run + layer probes (per-layer metrics)
//	bash bench/run.sh -quick                     smoke: tiny graphs, a second each
//	bash bench/run.sh -compare a.json b.json     apply the bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

func main() {
	var o options
	var trace int
	var compare bool
	var repeat int
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: "+fmt.Sprint(workloadNames)+" (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default 15, or 1 with -quick)")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer probes, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke run on tiny graphs; results are stamped quick and -compare refuses them")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for results.json, trace files and scratch")
	flag.BoolVar(&compare, "compare", false, "compare two result files given as arguments, using the bounds in BENCHMARK.json")
	flag.IntVar(&repeat, "repeat", 1, "all-workloads mode: repeat the whole set this many times on seeds seed, seed+1, ...")
	flag.Parse()
	o.trace = trace != 0
	if o.seconds <= 0 {
		o.seconds = 15
		if o.quick {
			o.seconds = 1
		}
	}

	var err error
	switch {
	case compare:
		err = compareMain(flag.Args())
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o, repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs one workload in this process and returns its record, with
// every metric of the requested list present.
func measure(o options) (*record, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	run, ok := map[string]func(options, *record) error{
		pagerankDense.name: pagerankDense.run,
		bfsFrontier.name:   bfsFrontier.run,
		serveRead.name:     serveRead.run,
		serveMixed.name:    serveMixed.run,
	}[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	rec := newRecord(o.workload, o)
	if err := run(o, rec); err != nil {
		return nil, err
	}
	for name := range rec.spec {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", o.workload, name)
		}
	}
	return rec, nil
}

// runOne measures one workload, prints its metrics and ends with the
// one-line JSON result the benchmark contract asks for.
func runOne(o options) error {
	rec, err := measure(o)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.recordPath(), data, 0o644); err != nil {
		return err
	}

	printRecord(rec)
	line, err := json.Marshal(map[string]any{
		"correct":   rec.Failed == 0,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   rec.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rec.Failed > 0 {
		return fmt.Errorf("%s: %d of %d checked operations failed: %v", o.workload, rec.Failed, rec.Attempted, rec.Failures)
	}
	return nil
}

// recordPath is where a single-workload run leaves its record.
func (o options) recordPath() string {
	kind := "e2e"
	if o.trace {
		kind = "layers"
	}
	return filepath.Join(o.outDir, o.workload+"."+kind+".json")
}

func printRecord(rec *record) {
	fmt.Printf("workload %s  seed %d  %gs  trace=%v quick=%v  nproc=%d GOMAXPROCS=%d clients=%d oversubscribed=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Quick, rec.NProc, rec.GOMAXPROCS, rec.Clients, rec.Oversubscribed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		n := ""
		if c, ok := rec.SampleCounts[name]; ok {
			n = "  n=" + strconv.Itoa(c)
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", name, m.Value, m.Unit, n)
	}
	fmt.Printf("  hypervisor stole %.2f%% of the CPU time in the timed window; %d noisy windows discarded\n",
		rec.StealShare*100, rec.NoisyWindows)
	if len(rec.Thin) > 0 {
		fmt.Printf("  fewer than %d samples beyond: %v\n", minBeyond, rec.Thin)
	}
	fmt.Printf("  %-34s %14.6g ratio  (%d failed of %d checked)\n", "failed_share",
		ratio(float64(rec.Failed), float64(rec.Attempted)), rec.Failed, rec.Attempted)
}

// results is the file the all-workloads mode writes and -compare reads:
// every record of every repeat, untraced and traced.
type results struct {
	Quick bool      `json:"quick"`
	Runs  []*record `json:"runs"`
}

// runAll runs every workload untraced and then traced, each in its own
// child process so peak RSS and the process-global obsv.Live() counters
// are per workload, and gathers the records into results.json.
func runAll(o options, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	out := results{Quick: o.quick}
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloadNames {
			for _, trace := range []bool{false, true} {
				child := o
				child.workload, child.trace, child.seed = w, trace, o.seed+int64(rep)
				args := []string{"-workload", w, "-seed", strconv.FormatInt(child.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
				if trace {
					args = append(args, "-trace", "1")
				}
				if o.quick {
					args = append(args, "-quick")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %v): %w", w, trace, err)
				}
				data, err := os.ReadFile(child.recordPath())
				if err != nil {
					return err
				}
				rec := new(record)
				if err := json.Unmarshal(data, rec); err != nil {
					return err
				}
				out.Runs = append(out.Runs, rec)
			}
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "results.json")
	fmt.Println("wrote", path)
	return os.WriteFile(path, data, 0o644)
}
