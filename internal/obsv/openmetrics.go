package obsv

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus/OpenMetrics text exposition over the process's "mlvc."
// expvar gauges. The same counters back both /debug/vars (raw expvar
// JSON) and /metrics (this exposition), so a scraper and a human poking
// the debug endpoint always agree.
//
// Family names translate by replacing dots with underscores
// (mlvc.pages_read -> mlvc_pages_read). expvar.Map vars become labeled
// samples: mlvc.stage_pages_read{vertex: 12} exports as
// mlvc_stage_pages_read{stage="vertex"} 12.

// metricsContentType is the Prometheus text exposition format version
// this package writes.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricMeta documents one exported family: HELP text, TYPE, and — for
// expvar.Map families — the label name its keys populate.
type metricMeta struct {
	help  string
	typ   string // "counter" or "gauge"
	label string // label name for map families; "" for scalars
	unit  string // the unit the family name ends with; "" for a count
}

// varMeta is filled by Live from the LiveVars field tags and only read
// after Live has returned.
var varMeta = map[string]metricMeta{}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func promNum(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WriteOpenMetrics writes every "mlvc."-prefixed expvar in Prometheus
// text exposition format: families sorted by name, HELP/TYPE (and UNIT, for
// a family declared with one) preceding samples, map keys sorted within a
// family, and a trailing # EOF marker.
func WriteOpenMetrics(w io.Writer) error {
	var vars []expvar.KeyValue
	expvar.Do(func(kv expvar.KeyValue) {
		if strings.HasPrefix(kv.Key, "mlvc.") {
			vars = append(vars, kv)
		}
	})
	return writeOpenMetricsVars(w, vars)
}

// writeOpenMetricsVars is WriteOpenMetrics over an explicit var list
// (unit-testable without touching the process-global expvar registry).
func writeOpenMetricsVars(w io.Writer, vars []expvar.KeyValue) error {
	Live() // varMeta is complete once this returns
	sort.Slice(vars, func(i, j int) bool { return vars[i].Key < vars[j].Key })
	for _, kv := range vars {
		name := strings.ReplaceAll(kv.Key, ".", "_")
		meta, ok := varMeta[kv.Key]
		if !ok {
			meta = metricMeta{help: "mlvc expvar " + kv.Key, typ: "untyped"}
			if _, isMap := kv.Value.(*expvar.Map); isMap {
				meta.label = "key"
			}
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			name, helpEscaper.Replace(meta.help), name, meta.typ); err != nil {
			return err
		}
		if meta.unit != "" {
			if _, err := fmt.Fprintf(w, "# UNIT %s %s\n", name, meta.unit); err != nil {
				return err
			}
		}
		var err error
		switch v := kv.Value.(type) {
		case *expvar.Int:
			_, err = fmt.Fprintf(w, "%s %d\n", name, v.Value())
		case *expvar.Float:
			_, err = fmt.Fprintf(w, "%s %s\n", name, promNum(v.Value()))
		case *expvar.Map:
			var keys []string
			v.Do(func(e expvar.KeyValue) { keys = append(keys, e.Key) })
			sort.Strings(keys)
			for _, k := range keys {
				ev := v.Get(k)
				if ev == nil {
					continue
				}
				var val string
				switch sv := ev.(type) {
				case *expvar.Int:
					val = strconv.FormatInt(sv.Value(), 10)
				case *expvar.Float:
					val = promNum(sv.Value())
				default:
					continue // nested maps etc. have no exposition
				}
				if _, err = fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n",
					name, meta.label, labelEscaper.Replace(k), val); err != nil {
					return err
				}
			}
		default:
			// Opaque expvar kinds (Func, String) have no numeric sample;
			// the HELP/TYPE stanza alone documents their presence.
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// MetricsHandler serves WriteOpenMetrics with the Prometheus text
// content type. Mounted at /metrics by Serve.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metricsContentType)
		_ = WriteOpenMetrics(w)
	})
}
