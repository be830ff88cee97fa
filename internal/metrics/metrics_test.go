package metrics

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleReport(storage, compute time.Duration) *Report {
	r := &Report{Engine: "multilogvc", App: "bfs", Graph: "g"}
	r.Supersteps = []SuperstepStats{
		{Superstep: 0, Counters: Counters{Active: 10, PagesRead: 100, PagesWritten: 20,
			StorageTime: storage / 2, ComputeTime: compute / 2}},
		{Superstep: 1, Counters: Counters{Active: 5, PagesRead: 50, PagesWritten: 10,
			StorageTime: storage / 2, ComputeTime: compute / 2}},
	}
	r.Finish()
	return r
}

func TestReportFinishAccumulates(t *testing.T) {
	r := sampleReport(10*time.Millisecond, 6*time.Millisecond)
	if r.PagesRead != 150 || r.PagesWritten != 30 {
		t.Fatalf("pages = %d/%d", r.PagesRead, r.PagesWritten)
	}
	if r.TotalPages() != 180 {
		t.Fatalf("TotalPages = %d", r.TotalPages())
	}
	if r.StorageTime != 10*time.Millisecond || r.ComputeTime != 6*time.Millisecond {
		t.Fatalf("times = %v/%v", r.StorageTime, r.ComputeTime)
	}
	if r.TotalTime() != 16*time.Millisecond {
		t.Fatalf("TotalTime = %v", r.TotalTime())
	}
}

func TestStorageFraction(t *testing.T) {
	r := sampleReport(12*time.Millisecond, 4*time.Millisecond)
	if f := r.StorageFraction(); f < 0.74 || f > 0.76 {
		t.Fatalf("StorageFraction = %f, want 0.75", f)
	}
	empty := &Report{}
	if empty.StorageFraction() != 0 {
		t.Fatal("empty report fraction should be 0")
	}
}

func TestSpeedupAndPageRatio(t *testing.T) {
	base := sampleReport(20*time.Millisecond, 0)
	fast := sampleReport(5*time.Millisecond, 0)
	if sp := Speedup(base, fast); sp < 3.9 || sp > 4.1 {
		t.Fatalf("Speedup = %f, want 4", sp)
	}
	if pr := PageRatio(base, fast); pr != 1 {
		t.Fatalf("PageRatio of equal page counts = %f", pr)
	}
	zero := &Report{}
	if Speedup(base, zero) != 0 || PageRatio(base, zero) != 0 {
		t.Fatal("zero-denominator guards failed")
	}
}

func TestSuperstepTotal(t *testing.T) {
	ss := SuperstepStats{Counters: Counters{StorageTime: time.Second, ComputeTime: 2 * time.Second}}
	if ss.Total() != 3*time.Second {
		t.Fatalf("Total = %v", ss.Total())
	}
}

func TestReportString(t *testing.T) {
	s := sampleReport(time.Millisecond, time.Millisecond).String()
	for _, want := range []string{"multilogvc/bfs", "2 supersteps", "pages r/w=150/30"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("a-much-longer-name", "22.50")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== demo ==") {
		t.Fatalf("title line = %q", lines[0])
	}
	// Columns align: every data line has "value" column at same offset.
	col := strings.Index(lines[1], "value")
	if col < 0 {
		t.Fatal("header missing value column")
	}
	if lines[3][col-2:col] != "  " {
		t.Fatalf("row 1 misaligned: %q", lines[3])
	}
	if !strings.Contains(lines[4], "22.50") {
		t.Fatalf("row 2 = %q", lines[4])
	}
}

func TestFormatHelpers(t *testing.T) {
	if F(1.23456) != "1.23" {
		t.Fatalf("F = %q", F(1.23456))
	}
	if D(1500*time.Nanosecond) != "2µs" {
		t.Fatalf("D = %q", D(1500*time.Nanosecond))
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	tab.AddRow("plain", "with,comma")
	tab.AddRow(`with"quote`, "x")
	got := tab.CSV()
	want := "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",x\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestTableRaggedRows(t *testing.T) {
	// Regression: a row with more cells than Headers used to panic in
	// writeRow (widths[i] with i >= len(widths)).
	tab := &Table{Headers: []string{"a", "b"}}
	tab.AddRow("1", "2", "extra", "more")
	tab.AddRow("3")
	out := tab.String()
	if !strings.Contains(out, "extra") || !strings.Contains(out, "more") {
		t.Fatalf("ragged cells dropped:\n%s", out)
	}
	if got := tab.CSV(); !strings.Contains(got, "extra,more") {
		t.Fatalf("CSV dropped ragged cells: %q", got)
	}
}

func TestReportStringIncludesWallTime(t *testing.T) {
	r := sampleReport(time.Millisecond, time.Millisecond)
	r.WallTime = 123 * time.Millisecond
	if s := r.String(); !strings.Contains(s, "wall=123ms") {
		t.Fatalf("String() = %q missing wall time", s)
	}
}

func TestFinishSortsSupersteps(t *testing.T) {
	r := &Report{}
	r.Supersteps = []SuperstepStats{
		{Superstep: 2, Counters: Counters{PagesRead: 1}},
		{Superstep: 0, Counters: Counters{PagesRead: 2}},
		{Superstep: 1, Counters: Counters{PagesRead: 3}},
	}
	r.Finish()
	for i, ss := range r.Supersteps {
		if ss.Superstep != i {
			t.Fatalf("superstep %d at index %d after Finish", ss.Superstep, i)
		}
	}
	if r.PagesRead != 6 {
		t.Fatalf("PagesRead = %d", r.PagesRead)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := sampleReport(10*time.Millisecond, 6*time.Millisecond)
	r.WallTime = 20 * time.Millisecond
	r.Converged = true
	r.Supersteps[0].MsgSkew = 2.5
	r.Supersteps[0].ReadBatchPages.Observe(7)
	r.Supersteps[0].ReadBatchPages.Observe(64)

	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Totals in the JSON must match the text-table quantities.
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if got := m["total_pages"].(float64); uint64(got) != r.TotalPages() {
		t.Fatalf("total_pages = %v, want %d", got, r.TotalPages())
	}
	if got := m["total_ns"].(float64); time.Duration(got) != r.TotalTime() {
		t.Fatalf("total_ns = %v, want %d", got, r.TotalTime())
	}
	if got := m["wall_ns"].(float64); time.Duration(got) != r.WallTime {
		t.Fatalf("wall_ns = %v, want %d", got, r.WallTime)
	}
	if got := m["storage_fraction"].(float64); got != r.StorageFraction() {
		t.Fatalf("storage_fraction = %v", got)
	}

	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine != r.Engine || back.WallTime != r.WallTime || !back.Converged {
		t.Fatalf("round trip lost header fields: %+v", back)
	}
	if len(back.Supersteps) != len(r.Supersteps) {
		t.Fatalf("round trip lost supersteps: %d", len(back.Supersteps))
	}
	if back.Supersteps[0].MsgSkew != 2.5 {
		t.Fatalf("MsgSkew = %v", back.Supersteps[0].MsgSkew)
	}
	if got := back.Supersteps[0].ReadBatchPages; got.N != 2 || got.Sum != 71 {
		t.Fatalf("hist round trip = %+v", got)
	}
}

// fillCounters sets every field of c to 1 and fails on a field kind it
// does not know how to set, so a new kind cannot slip past the checks.
func fillCounters(t *testing.T, c *Counters) {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Int64:
			f.SetInt(1)
		default:
			t.Fatalf("Counters.%s has kind %s; counters are uint64 or time.Duration", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestCountersAddComplete is the check that replaces keeping Add in step
// with the struct by hand: a field Add forgets stays 1 and fails by name.
func TestCountersAddComplete(t *testing.T) {
	var c Counters
	fillCounters(t, &c)
	c.Add(c)
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		var got uint64
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			got = f.Uint()
		} else {
			got = uint64(f.Int())
		}
		if got != 2 {
			t.Errorf("Counters.Add does not accumulate %s: 1+1 = %d", v.Type().Field(i).Name, got)
		}
	}
}

// jsonKinds marshals v and maps each top-level key to its JSON type.
func jsonKinds(t *testing.T, v any) map[string]string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]string, len(m))
	for k, x := range m {
		switch x.(type) {
		case float64:
			kinds[k] = "number"
		case string:
			kinds[k] = "string"
		case bool:
			kinds[k] = "bool"
		case map[string]any:
			kinds[k] = "object"
		case []any:
			kinds[k] = "array"
		default:
			kinds[k] = fmt.Sprintf("%T", x)
		}
	}
	return kinds
}

func populatedSuperstep(t *testing.T) SuperstepStats {
	ss := SuperstepStats{Superstep: 1, MsgSkew: 1.5, IOSkew: 1.25,
		Stages: []StageIO{{Stage: "vertex", PagesRead: 1}}}
	fillCounters(t, &ss.Counters)
	return ss
}

// The key lists below started as what PR 19's exports carried when every
// field was set. Consumers outside the repo read these names, so they may
// grow but never be renamed or change JSON type, and they shrink only with
// the feature a key describes.
var counterKeysAtPR19 = []string{
	"pages_read", "pages_written", "storage_ns", "compute_ns",
	"cache_hits", "cache_misses", "cache_evictions", "prefetch_dropped",
	"transient_faults", "retries", "retry_backoff_ns", "retries_exhausted",
	"corrupt_pages", "elog_healed",
	"checkpoints", "checkpoint_pages", "checkpoint_ns",
	"spills", "spill_bytes", "no_space_faults", "reclaims", "reclaimed_bytes",
}

func checkKeys(t *testing.T, got, want map[string]string) {
	t.Helper()
	for k, kind := range want {
		if got[k] != kind {
			t.Errorf("key %q: JSON type %q, want %q", k, got[k], kind)
		}
	}
}

func TestSuperstepJSONKeysStable(t *testing.T) {
	want := map[string]string{
		"superstep": "number", "active": "number", "msgs_sent": "number", "msgs_delivered": "number",
		"colidx_pages_read": "number", "edgelog_pages_read": "number", "edgelog_pages_write": "number",
		"inefficient_pages": "number", "predicted_ineff": "number", "correct_predicted": "number",
		"util_pages_touched": "number", "msg_skew": "number", "io_skew": "number", "stages": "array",
		"interval_pages": "object", "read_batch_pages": "object", "write_batch_pages": "object",
		"read_latency_us": "object", "write_latency_us": "object",
	}
	for _, k := range counterKeysAtPR19 {
		want[k] = "number"
	}
	ss := populatedSuperstep(t)
	checkKeys(t, jsonKinds(t, ss), want)

	raw, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	var back SuperstepStats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters != ss.Counters {
		t.Fatalf("superstep counters changed in a JSON round trip:\n got %+v\nwant %+v", back.Counters, ss.Counters)
	}
}

func TestReportJSONKeysStable(t *testing.T) {
	want := map[string]string{
		"engine": "string", "app": "string", "graph": "string", "converged": "bool",
		"num_supersteps": "number", "total_pages": "number", "total_ns": "number", "wall_ns": "number",
		"total": "string", "wall": "string", "storage_fraction": "number", "cache_hit_rate": "number",
		"resumed": "bool", "resume_step": "number", "rollbacks": "number",
		"stages": "array", "supersteps": "array",
	}
	for _, k := range counterKeysAtPR19 {
		want[k] = "number"
	}
	r := &Report{Engine: "multilogvc", App: "bfs", Graph: "g", Converged: true,
		WallTime: time.Second, Resumed: true, ResumeStep: 1, Rollbacks: 1,
		Supersteps: []SuperstepStats{populatedSuperstep(t)}}
	r.Finish()
	got := jsonKinds(t, r)
	checkKeys(t, got, want)
	// The run totals the embedding added: additive keys, same names as the
	// per-superstep rows.
	for _, k := range []string{"active", "msgs_sent", "msgs_delivered", "edgelog_pages_read"} {
		if got[k] != "number" {
			t.Errorf("run total %q: JSON type %q, want number", k, got[k])
		}
	}

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters != r.Counters {
		t.Fatalf("run totals changed in a JSON round trip:\n got %+v\nwant %+v", back.Counters, r.Counters)
	}
	if back.Resumed != r.Resumed || back.ResumeStep != r.ResumeStep || back.Rollbacks != r.Rollbacks {
		t.Fatalf("run-level state changed in a JSON round trip: %+v", back)
	}
}
