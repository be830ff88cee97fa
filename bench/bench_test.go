package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/obsv"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7, 3, 5}, 0.5); got != 5 {
		t.Errorf("median of 3 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A percentile is reported only when at least ten samples lie beyond it:
// p95 needs 200 samples, p99 needs 1000, the median needs 20.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true}, {600, 0.95, true},
		{600, 0.99, false}, {1000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true}, {11, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(n=%d, q=%v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// driver's definition of spread.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 13, 14, 19, 16, 18, 17}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-11.75) > 1e-9 || math.Abs(q3-17.25) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 11.75, 17.25", q1, q3)
	}
	if got, want := spread(xs), (17.25-11.75)/14; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	ev := func(name string, tid int, start, dur time.Duration) obsv.Event {
		return obsv.Event{Name: name, Cat: "bench", Tid: tid, Start: start, Dur: dur}
	}
	// Completion order, as a trace records them: children before parents.
	spans := resolveSpans([]obsv.Event{
		ev("load", 1, 10*ms, 20*ms),
		ev("values", 1, 40*ms, 5*ms),
		ev("process", 1, 35*ms, 40*ms),
		ev("flush", 2, 50*ms, 10*ms), // another timeline: nobody's child
		ev("superstep", 1, 5*ms, 80*ms),
		ev("run", 1, 0, 100*ms),
		ev("run", 1, 100*ms, 50*ms),
	})
	byName := make(map[string]span)
	root := -1
	for i, s := range spans {
		if s.Name == "run" && s.Start == 0 {
			root = i
		}
		if _, dup := byName[s.Name]; !dup {
			byName[s.Name] = s
		}
	}
	want := map[string]time.Duration{"run": 20 * ms, "superstep": 20 * ms, "load": 20 * ms, "process": 35 * ms, "values": 5 * ms, "flush": 10 * ms}
	for name, self := range want {
		if got := byName[name].Self; got != self {
			t.Errorf("self time of %s = %v, want %v", name, got, self)
		}
	}
	if p := byName["values"].Parent; p < 0 || spans[p].Name != "process" {
		t.Errorf("values' parent = %d, want the process span", p)
	}
	if byName["flush"].Parent != -1 {
		t.Errorf("a span on its own timeline got a parent")
	}
	under := selfTimeUnder(spans, root)
	if under["process"] != 35*ms || under["run"] != 20*ms || under["flush"] != 0 {
		t.Errorf("selfTimeUnder(first run) = %v", under)
	}
	var total time.Duration
	for _, d := range under {
		total += d
	}
	if total != 100*ms {
		t.Errorf("self times under a root sum to %v, want its duration 100ms", total)
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	o := options{seed: 5, quick: true}
	for _, a := range []analytics{pagerankDense, bfsFrontier} {
		e1, err := a.generate(o.seed, true)
		if err != nil {
			t.Fatal(err)
		}
		e2, _ := a.generate(o.seed, true)
		e3, _ := a.generate(o.seed+1, true)
		if !reflect.DeepEqual(e1, e2) {
			t.Errorf("%s: same seed, different graph", a.name)
		}
		if reflect.DeepEqual(e1, e3) {
			t.Errorf("%s: different seeds, same graph", a.name)
		}
	}
	base, err := gen.RMAT(gen.DefaultRMAT(8, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	stream := func(seed int64) [][]mutationJSON {
		m := newMutator(seed, 256, base)
		var out [][]mutationJSON
		for i := 0; i < 12; i++ {
			out = append(out, m.next())
		}
		return out
	}
	if !reflect.DeepEqual(stream(3), stream(3)) {
		t.Error("mutation stream: same seed, different batches")
	}
	if reflect.DeepEqual(stream(3), stream(4)) {
		t.Error("mutation stream: different seeds, same batches")
	}
}

// The add/del window: every batch adds mutateAdds fresh edges and, once
// the window is full, deletes the adds of the batch mutateLag earlier, so
// replaying the stream over the base graph gives exactly the oracle.
func TestMutationWindowOracle(t *testing.T) {
	base, err := gen.RMAT(gen.DefaultRMAT(8, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := newMutator(9, 256, base)
	have := make(map[graphio.Edge]int)
	for _, e := range base {
		have[e]++
	}
	for k := 0; k < 3*mutateLag; k++ {
		batch := m.next()
		adds, dels := 0, 0
		for _, mu := range batch {
			e := graphio.Edge{Src: mu.Src, Dst: mu.Dst}
			switch mu.Op {
			case "add":
				if have[e] != 0 {
					t.Fatalf("batch %d adds %v, which is already present", k, e)
				}
				have[e]++
				adds++
			case "del":
				if have[e] != 1 {
					t.Fatalf("batch %d deletes %v, which is not present once", k, e)
				}
				delete(have, e)
				dels++
			}
		}
		wantDels := 0
		if k >= mutateLag {
			wantDels = mutateAdds
		}
		if adds != mutateAdds || dels != wantDels {
			t.Fatalf("batch %d: %d adds %d dels, want %d and %d", k, adds, dels, mutateAdds, wantDels)
		}
	}
	oracle := m.oracle(base)
	if len(oracle) != len(base)+mutateLag*mutateAdds || len(oracle) != len(have) {
		t.Fatalf("oracle holds %d edges, replay %d, want base %d + %d live", len(oracle), len(have), len(base), mutateLag*mutateAdds)
	}
	for _, e := range oracle {
		if have[e] != 1 {
			t.Fatalf("oracle edge %v is not in the replayed graph", e)
		}
	}
}

// The names and units in BENCHMARK.json are the ones this package reports.
func TestSpecMatchesContract(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", names, workloadNames)
	}
	var e2e, layers []metricSpec
	setup := false
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range c.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the benchmark reports %v", layers, perLayer)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, false, "ok"},
		{"slower latency", steady, shift(1.2), false, "regressed"},
		{"faster latency", steady, shift(0.8), false, "improved"},
		{"higher throughput", steady, shift(1.2), true, "improved"},
		{"lower throughput", steady, shift(0.8), true, "regressed"},
		{"within the bound", steady, shift(1.05), false, "ok"},
		{"own spread above the bound", noisy, shift(1.2), false, "unresolved"},
	} {
		if _, _, _, got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// One -quick pass of every workload, untraced and traced, end to end: all
// metrics measured, every correctness and drain check passed.
func TestQuickEndToEnd(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 1, seconds: 0.3, trace: trace, quick: true, outDir: t.TempDir()}
			rec, err := measure(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", w, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			if !trace {
				for _, m := range endToEnd {
					if v := rec.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, v)
					}
				}
			}
		}
	}
}
