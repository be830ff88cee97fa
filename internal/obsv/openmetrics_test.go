package obsv

import (
	"bytes"
	"expvar"
	"strings"
	"sync"
	"testing"
)

// kv builds an expvar.KeyValue without touching the process-global
// registry (expvar.NewInt et al. panic on duplicate names across tests).
func kvInt(name string, v int64) expvar.KeyValue {
	i := new(expvar.Int)
	i.Set(v)
	return expvar.KeyValue{Key: name, Value: i}
}

func kvFloat(name string, v float64) expvar.KeyValue {
	f := new(expvar.Float)
	f.Set(v)
	return expvar.KeyValue{Key: name, Value: f}
}

func kvMap(name string, entries map[string]int64) expvar.KeyValue {
	m := new(expvar.Map).Init()
	for k, v := range entries {
		m.Add(k, v)
	}
	return expvar.KeyValue{Key: name, Value: m}
}

func TestOpenMetricsGoldenFormat(t *testing.T) {
	vars := []expvar.KeyValue{
		// Deliberately out of order: output must sort by family name.
		kvMap("mlvc.stage_pages_read", map[string]int64{"vertex": 12, "relog": 3}),
		kvInt("mlvc.pages_read", 150),
		kvFloat("mlvc.cache_hit_rate", 0.75),
	}
	var buf bytes.Buffer
	if err := writeOpenMetricsVars(&buf, vars); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP mlvc_cache_hit_rate Page-cache hit rate of the latest superstep",
		"# TYPE mlvc_cache_hit_rate gauge",
		"mlvc_cache_hit_rate 0.75",
		"# HELP mlvc_pages_read Cumulative device pages read by engine runs",
		"# TYPE mlvc_pages_read counter",
		"mlvc_pages_read 150",
		"# HELP mlvc_stage_pages_read Cumulative device pages read, by pipeline stage",
		"# TYPE mlvc_stage_pages_read counter",
		`mlvc_stage_pages_read{stage="relog"} 3`,
		`mlvc_stage_pages_read{stage="vertex"} 12`,
		"# EOF",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpenMetricsReplicationFamilies pins the exposition of the
// replication metrics: gauges for the replica cursor and lag, counters
// for frames shipped and promotions, each with its registered HELP text.
func TestOpenMetricsReplicationFamilies(t *testing.T) {
	vars := []expvar.KeyValue{
		kvInt("mlvc.replica_applied_seq", 1042),
		kvInt("mlvc.replica_lag_frames", 7),
		kvInt("mlvc.frames_shipped", 5000),
		kvInt("mlvc.promotions", 1),
	}
	var buf bytes.Buffer
	if err := writeOpenMetricsVars(&buf, vars); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP mlvc_frames_shipped WAL frames served to followers via /replicate",
		"# TYPE mlvc_frames_shipped counter",
		"mlvc_frames_shipped 5000",
		"# HELP mlvc_promotions Follower promotions to writable primary",
		"# TYPE mlvc_promotions counter",
		"mlvc_promotions 1",
		"# HELP mlvc_replica_applied_seq Highest WAL sequence number applied by this replica",
		"# TYPE mlvc_replica_applied_seq gauge",
		"mlvc_replica_applied_seq 1042",
		"# HELP mlvc_replica_lag_frames WAL frames this replica trails its primary by",
		"# TYPE mlvc_replica_lag_frames gauge",
		"mlvc_replica_lag_frames 7",
		"# EOF",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("replication exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpenMetricsUnitLine: a family declared with a unit carries a UNIT
// line after its HELP and TYPE.
func TestOpenMetricsUnitLine(t *testing.T) {
	var buf bytes.Buffer
	if err := writeOpenMetricsVars(&buf, []expvar.KeyValue{kvInt("mlvc.slot_idle_bytes", 4096)}); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP mlvc_slot_idle_bytes Engine working-set bytes kept idle between runs for the next run",
		"# TYPE mlvc_slot_idle_bytes gauge",
		"# UNIT mlvc_slot_idle_bytes bytes",
		"mlvc_slot_idle_bytes 4096",
		"# EOF",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestOpenMetricsStableOrdering(t *testing.T) {
	vars := []expvar.KeyValue{
		kvInt("mlvc.runs", 1),
		kvInt("mlvc.pages_read", 2),
		kvInt("mlvc.checkpoints", 3),
	}
	var first string
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := writeOpenMetricsVars(&buf, vars); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("output differs between calls:\n%s\nvs\n%s", first, buf.String())
		}
	}
	// Families appear name-sorted regardless of input order.
	ci := strings.Index(first, "mlvc_checkpoints")
	pi := strings.Index(first, "mlvc_pages_read")
	ri := strings.Index(first, "mlvc_runs")
	if !(ci < pi && pi < ri) {
		t.Fatalf("families not sorted:\n%s", first)
	}
}

func TestOpenMetricsLabelEscaping(t *testing.T) {
	vars := []expvar.KeyValue{
		kvMap("mlvc.weird", map[string]int64{"a\\b\"c\nd": 1}),
	}
	var buf bytes.Buffer
	if err := writeOpenMetricsVars(&buf, vars); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `mlvc_weird{key="a\\b\"c\nd"} 1`
	// The escaped sample must appear as one complete line: backslash,
	// quote, and newline all escaped, no raw newline splitting the sample.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if line == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped sample missing or split:\ngot:\n%s\nwant line: %s", out, want)
	}
}

func TestOpenMetricsUnknownVarGetsUntyped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeOpenMetricsVars(&buf, []expvar.KeyValue{kvInt("mlvc.novel", 9)}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE mlvc_novel untyped") || !strings.Contains(out, "mlvc_novel 9") {
		t.Fatalf("unknown var exposition:\n%s", out)
	}
}

// TestLiveConcurrentUpdates hammers the singleton gauges — including the
// per-stage maps — from many goroutines while the exposition renders,
// proving the expvar surface is race-free (run with -race).
func TestLiveConcurrentUpdates(t *testing.T) {
	live := Live()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				live.PagesRead.Add(1)
				live.PagesWritten.Add(1)
				live.CacheHitRate.Set(float64(i) / 500)
				live.StagePagesRead.Add(StageNames()[i%NumStages], 1)
				live.StagePagesWritten.Add("vertex", 1)
			}
		}()
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := WriteOpenMetrics(&buf); err != nil {
					t.Error(err)
					return
				}
				if !strings.HasSuffix(buf.String(), "# EOF\n") {
					t.Error("exposition missing EOF marker")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	// Every stage the writers touched shows up with a positive counter.
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `mlvc_stage_pages_read{stage="vertex"}`) {
		t.Fatalf("vertex stage missing from exposition:\n%s", buf.String())
	}
}
