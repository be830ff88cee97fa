package obsv

import (
	"bytes"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestLiveSingleton(t *testing.T) {
	a, b := Live(), Live()
	if a != b {
		t.Fatal("Live() returned distinct instances")
	}
	a.Superstep.Set(7)
	if b.Superstep.Value() != 7 {
		t.Fatal("vars not shared")
	}
}

func TestServeExpvarAndPprof(t *testing.T) {
	addr, closeFn, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	Live().Superstep.Set(3)

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if v, ok := vars["mlvc.superstep"].(float64); !ok || v != 3 {
		t.Fatalf("mlvc.superstep = %v", vars["mlvc.superstep"])
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

// liveFamiliesAtPR19 started as every family /metrics exported before
// LiveVars fields carried their own metadata. The declarations may grow
// past this list, or drop a family along with its feature, but a change
// that does either edits it on purpose.
var liveFamiliesAtPR19 = []string{
	"mlvc_active_vertices", "mlvc_batched_queries", "mlvc_batches_run", "mlvc_breaker_opens",
	"mlvc_breaker_sheds", "mlvc_cache_hit_rate", "mlvc_cache_resident_pages", "mlvc_checkpoints",
	"mlvc_corrupt_pages", "mlvc_edgelog_hit_rate", "mlvc_elog_heals", "mlvc_frames_shipped",
	"mlvc_ingest_backpressure", "mlvc_ingest_batches", "mlvc_ingest_errors", "mlvc_ingest_merges",
	"mlvc_ingest_mutations", "mlvc_msg_skew", "mlvc_msgs_sent", "mlvc_no_space_faults",
	"mlvc_pages_read", "mlvc_pages_written", "mlvc_panics_recovered",
	"mlvc_promotions", "mlvc_queries_isolated", "mlvc_queries_retried", "mlvc_queries_served",
	"mlvc_queries_shed", "mlvc_query_deadlines", "mlvc_query_errors", "mlvc_query_pages_read",
	"mlvc_query_pages_written", "mlvc_reclaimed_bytes", "mlvc_reclaims", "mlvc_replica_applied_seq",
	"mlvc_replica_lag_frames", "mlvc_resumes", "mlvc_retries", "mlvc_rollbacks", "mlvc_runs",
	"mlvc_slot_idle_bytes", "mlvc_spill_bytes", "mlvc_spills", "mlvc_stage_pages_read", "mlvc_stage_pages_written",
	"mlvc_superstep", "mlvc_transient_faults", "mlvc_wal_flushes", "mlvc_wal_frames",
	"mlvc_wal_replayed_frames", "mlvc_wal_torn_tails",
}

// TestLiveVarsAllDeclared reads /metrics the way a scraper does: every
// family the process registers is typed and documented, and the family
// set is exactly the 51 names above — none added, renamed or dropped.
func TestLiveVarsAllDeclared(t *testing.T) {
	Live()
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	kinds, helps, units := map[string]string{}, map[string]string{}, map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.SplitN(line, " ", 4)
		if len(f) < 4 || f[0] != "#" {
			continue
		}
		into := map[string]map[string]string{"HELP": helps, "TYPE": kinds, "UNIT": units}[f[1]]
		if into == nil {
			t.Errorf("family %s has a %s line", f[2], f[1])
			continue
		}
		if _, dup := into[f[2]]; dup {
			t.Errorf("family %s has two %s lines", f[2], f[1])
		}
		into[f[2]] = f[3]
	}
	for name, unit := range units {
		if !strings.HasSuffix(name, "_"+unit) {
			t.Errorf("family %s has unit %q, not the suffix of its name", name, unit)
		}
	}
	for name, kind := range kinds {
		if kind != "counter" && kind != "gauge" {
			t.Errorf("family %s is exported as %q", name, kind)
		}
		if h := helps[name]; h == "" || strings.HasPrefix(h, "mlvc expvar ") {
			t.Errorf("family %s has placeholder help %q", name, h)
		}
	}
	var got []string
	for name := range kinds {
		got = append(got, name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, liveFamiliesAtPR19) {
		t.Errorf("family set changed:\n got %v\nwant %v", got, liveFamiliesAtPR19)
	}
}

var update = flag.Bool("update", false, "rewrite the live-metric table in README.md from the LiveVars declarations")

// liveMetricTable renders the declarations as the README's reference table.
func liveMetricTable() string {
	Live()
	names := make([]string, 0, len(varMeta))
	for name := range varMeta {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("| name | kind | help |\n|---|---|---|\n")
	for _, name := range names {
		m := varMeta[name]
		if m.label != "" {
			m.typ += ", by `" + m.label + "`"
		}
		if m.unit != "" {
			m.typ += ", " + m.unit
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, m.typ, m.help)
	}
	return b.String()
}

// TestReadmeLiveMetricTable keeps README §Observability's metric table
// equal to the declarations; `go test ./internal/obsv -run Readme -update`
// rewrites it.
func TestReadmeLiveMetricTable(t *testing.T) {
	const path = "../../README.md"
	const begin, end = "<!-- live-metrics:begin -->\n", "<!-- live-metrics:end -->"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("%s lacks the %q … %q markers", path, strings.TrimSpace(begin), end)
	}
	i += len(begin)
	want := liveMetricTable()
	if readme[i:j] == want {
		return
	}
	if !*update {
		t.Fatalf("%s's live-metric table differs from the LiveVars declarations; run `go test ./internal/obsv -run Readme -update`\n got:\n%s\nwant:\n%s", path, readme[i:j], want)
	}
	if err := os.WriteFile(path, []byte(readme[:i]+want+readme[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDeclareRejectsIncompleteField: a metric half-declared fails at first
// use, by field name, before anything is registered.
func TestDeclareRejectsIncompleteField(t *testing.T) {
	for name, vars := range map[string]any{
		"no help": &struct {
			NoHelp *expvar.Int `metric:"mlvc.t_x" kind:"counter"`
		}{},
		"no kind": &struct {
			NoKind *expvar.Int `metric:"mlvc.t_x" help:"h"`
		}{},
		"untyped": &struct {
			Untyped *expvar.Int `metric:"mlvc.t_x" kind:"untyped" help:"h"`
		}{},
		"foreign name": &struct {
			Foreign *expvar.Int `metric:"t_x" kind:"gauge" help:"h"`
		}{},
		"map without label": &struct {
			NoLabel *expvar.Map `metric:"mlvc.t_x" kind:"counter" help:"h"`
		}{},
		"label on scalar": &struct {
			Scalar *expvar.Float `metric:"mlvc.t_x" kind:"gauge" label:"l" help:"h"`
		}{},
		"unit not in name": &struct {
			Unitless *expvar.Int `metric:"mlvc.t_x" kind:"gauge" unit:"bytes" help:"h"`
		}{},
		"not an expvar": &struct {
			Plain *int `metric:"mlvc.t_x" kind:"gauge" help:"h"`
		}{},
	} {
		t.Run(name, func(t *testing.T) {
			field := reflect.TypeOf(vars).Elem().Field(0).Name
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "field "+field) {
					t.Fatalf("declare did not reject field %s: %s", field, msg)
				}
				if expvar.Get("mlvc.t_x") != nil || varMeta["mlvc.t_x"] != (metricMeta{}) {
					t.Fatalf("rejected field %s was registered anyway", field)
				}
			}()
			declare(reflect.ValueOf(vars).Elem())
		})
	}
}
