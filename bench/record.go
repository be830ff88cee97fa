package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload invocation: where it ran, what it measured, the
// raw samples behind the medians, and the tally of checked operations.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`

	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"git_commit"`
	Clients        int    `json:"clients"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"`

	// StealShare is the share of CPU time the hypervisor gave to other
	// guests during the timed window that stands; NoisyWindows counts the
	// windows discarded because it was above maxSteal.
	StealShare   float64 `json:"steal_share"`
	NoisyWindows int     `json:"noisy_windows"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, for diagnosis

	Metrics      map[string]metricValue `json:"metrics"`
	Thin         []string               `json:"thin_tails,omitempty"` // percentiles with < 10 samples beyond
	SampleCounts map[string]int         `json:"sample_counts"`
	Samples      map[string][]float64   `json:"samples"`

	spec map[string]string // metric name -> unit, for set
}

func newRecord(workload string, o options) *record {
	r := &record{
		Workload:     workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
		Quick:        o.quick,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		Workers:      runtime.GOMAXPROCS(0),
		Metrics:      make(map[string]metricValue),
		SampleCounts: make(map[string]int),
		Samples:      make(map[string][]float64),
		spec:         make(map[string]string),
	}
	list := endToEnd
	if o.trace {
		list = perLayer
		for _, m := range list {
			r.Metrics[m.Name] = metricValue{Unit: m.Unit} // 0 = the layer did no work
		}
	}
	for _, m := range list {
		r.spec[m.Name] = m.Unit
	}
	return r
}

// set records a metric of this invocation's list; a metric of the other
// list (an end-to-end value computed during a traced run, say) is dropped.
func (r *record) set(name string, v float64) {
	if unit, ok := r.spec[name]; ok {
		r.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
}

// setupReps is how many times a run sets up; setup_s is their median and
// the last one is measured on.
const setupReps = 5

// setups times setupReps set-ups and records their medians; once reports
// how long the set-up it just did spent generating and building.
func (r *record) setups(once func() (genS, buildS float64, err error)) error {
	var total, gens, builds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		genS, buildS, err := once()
		if err != nil {
			return err
		}
		total = append(total, time.Since(t0).Seconds())
		gens, builds = append(gens, genS), append(builds, buildS)
	}
	r.set("setup_s", median(total))
	r.samples("setup_s", total)
	r.set("gen.generate_s", median(gens))
	r.set("csr.build_s", median(builds))
	return nil
}

// samples keeps the raw values a reported statistic was taken over.
func (r *record) samples(name string, xs []float64) {
	r.Samples[name] = xs
	r.SampleCounts[name] = len(xs)
}

// tail records the q-th percentile of xs with its sample count, and notes
// when the sample is too small for it: fewer than minBeyond samples lie
// beyond the reported value.
func (r *record) tail(name string, xs []float64, q float64) {
	r.set(name, percentile(xs, q))
	r.SampleCounts[name] = len(xs)
	if !supported(len(xs), q) {
		r.Thin = append(r.Thin, name)
	}
}

// check tallies one verified operation; a failed one keeps its message.
func (r *record) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *record) setClients(n int) {
	r.Clients = n
	r.Oversubscribed = n > r.NProc || r.Workers > r.NProc
}

// A timed window in which the hypervisor stole more than maxSteal of the
// CPU time is measured once more: on a shared host such episodes last a
// minute or two, slow everything by 10 % to 4x and would otherwise decide
// a run's numbers. The second window stands whatever it saw (a third would
// not fit the contract's time budget on a host that is noisy throughout),
// and the record says what that was.
const (
	maxSteal   = 0.02
	quietTries = 2
)

// cpuTimes reads the first line of /proc/stat: jiffies stolen by the
// hypervisor and jiffies in all. Zeros where there is no such file.
func cpuTimes() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // guest time is already part of user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// quietly measures one timed window, again while the host is noisy.
func quietly[T any](r *record, window func() (T, error)) (T, error) {
	for try := 1; ; try++ {
		s0, t0 := cpuTimes()
		out, err := window()
		s1, t1 := cpuTimes()
		r.StealShare = ratio(s1-s0, t1-t0)
		if err != nil || r.StealShare <= maxSteal || try == quietTries {
			return out, err
		}
		r.NoisyWindows++
	}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
