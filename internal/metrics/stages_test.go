package metrics

import (
	"encoding/json"
	"testing"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

func TestStagesFromDevicePartitionsDelta(t *testing.T) {
	var delta ssd.Stats
	delta.PagesRead = 7
	delta.PagesWritten = 3
	delta.ReadTime = 40 * time.Microsecond
	delta.WriteTime = 20 * time.Microsecond
	delta.Stages[obsv.StageVertex] = ssd.StageStats{PagesRead: 5, Time: 30 * time.Microsecond, CacheHits: 2}
	delta.Stages[obsv.StageRelog] = ssd.StageStats{PagesRead: 2, PagesWritten: 3, Time: 30 * time.Microsecond}

	rows := StagesFromDevice(delta)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want 2 non-zero stages", rows)
	}
	// Canonical order: vertex before relog.
	if rows[0].Stage != "vertex" || rows[1].Stage != "relog" {
		t.Fatalf("order = %q, %q", rows[0].Stage, rows[1].Stage)
	}
	var pr, pw uint64
	var tm time.Duration
	for _, r := range rows {
		pr += r.PagesRead
		pw += r.PagesWritten
		tm += r.Time
	}
	if pr != delta.PagesRead || pw != delta.PagesWritten || tm != delta.StorageTime() {
		t.Fatalf("rows sum %d/%d/%v, want %d/%d/%v",
			pr, pw, tm, delta.PagesRead, delta.PagesWritten, delta.StorageTime())
	}
}

func TestMergeStagesFoldsByName(t *testing.T) {
	a := []StageIO{{Stage: "vertex", PagesRead: 4, CacheHits: 1}, {Stage: "spill", PagesWritten: 2}}
	b := []StageIO{{Stage: "sortgroup", PagesRead: 1}, {Stage: "vertex", PagesRead: 6, Time: time.Millisecond}}
	m := MergeStages(a, b)
	if len(m) != 3 {
		t.Fatalf("merged = %+v", m)
	}
	// Canonical order: vertex, sortgroup, spill.
	if m[0].Stage != "vertex" || m[1].Stage != "sortgroup" || m[2].Stage != "spill" {
		t.Fatalf("order = %q, %q, %q", m[0].Stage, m[1].Stage, m[2].Stage)
	}
	v := StageByName(m, "vertex")
	if v.PagesRead != 10 || v.CacheHits != 1 || v.Time != time.Millisecond {
		t.Fatalf("vertex row = %+v", v)
	}
	if z := StageByName(m, "checkpoint"); z.PagesRead != 0 || z.Stage != "checkpoint" {
		t.Fatalf("absent stage = %+v", z)
	}
}

func TestReportFinishAggregatesStages(t *testing.T) {
	r := &Report{Engine: "multilogvc", App: "pagerank", Graph: "g"}
	r.Supersteps = []SuperstepStats{
		{Superstep: 0, Counters: Counters{PagesRead: 6}, Stages: []StageIO{
			{Stage: "vertex", PagesRead: 4},
			{Stage: "sortgroup", PagesRead: 2},
		}},
		{Superstep: 1, Counters: Counters{PagesRead: 5, PagesWritten: 1}, Stages: []StageIO{
			{Stage: "vertex", PagesRead: 5, PagesWritten: 1, Time: 2 * time.Millisecond},
		}},
	}
	r.Finish()
	if len(r.Stages) != 2 {
		t.Fatalf("run stages = %+v", r.Stages)
	}
	v := StageByName(r.Stages, "vertex")
	if v.PagesRead != 9 || v.PagesWritten != 1 || v.Time != 2*time.Millisecond {
		t.Fatalf("vertex total = %+v", v)
	}
	// Finish is idempotent for stages: re-running must not double-count.
	r.Finish()
	if v := StageByName(r.Stages, "vertex"); v.PagesRead != 9 {
		t.Fatalf("Finish not idempotent: vertex = %+v", v)
	}
	// Run-level stage sums match the run-level page totals.
	var pr uint64
	for _, s := range r.Stages {
		pr += s.PagesRead
	}
	if pr != r.PagesRead {
		t.Fatalf("stage pages %d != report pages %d", pr, r.PagesRead)
	}
}

func TestStageJSONRoundTrip(t *testing.T) {
	r := sampleReport(10*time.Millisecond, 6*time.Millisecond)
	r.Supersteps[0].Stages = []StageIO{
		{Stage: "vertex", PagesRead: 80, PagesWritten: 20, Time: 4 * time.Millisecond, CacheMisses: 80},
		{Stage: "relog", PagesRead: 20, Time: time.Millisecond},
	}
	r.Supersteps[0].IOSkew = 1.75
	r.Supersteps[0].IntervalPages.Observe(32)
	r.Supersteps[1].Stages = []StageIO{{Stage: "vertex", PagesRead: 50, PagesWritten: 10}}
	r.Finish()

	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages) != len(r.Stages) {
		t.Fatalf("round trip lost run stages: %+v", back.Stages)
	}
	if v := StageByName(back.Stages, "vertex"); v.PagesRead != 130 || v.PagesWritten != 30 {
		t.Fatalf("run vertex = %+v", v)
	}
	if got := back.Supersteps[0]; len(got.Stages) != 2 || got.IOSkew != 1.75 {
		t.Fatalf("superstep 0 round trip = %+v", got)
	}
	if got := back.Supersteps[0].IntervalPages.Max(); got < 32 {
		t.Fatalf("interval hist lost its sample: max = %d", got)
	}

	// Superstep without stage rows stays compact: no "stages" key at all.
	raw, err := json.Marshal(SuperstepStats{Superstep: 3})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["stages"]; ok {
		t.Fatalf("empty stages serialized: %s", raw)
	}
	if _, ok := m["io_skew"]; ok {
		t.Fatalf("zero io_skew serialized: %s", raw)
	}
}
