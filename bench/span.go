package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"multilogvc/internal/obsv"
)

// Spans. The benchmark records a span around every call it makes into a
// layer, on the same obsv.Trace the engine's own RunOptions.Trace spans
// land on, so one timeline holds both. A span's parent is the tightest
// span on its timeline (tid) that contains it; its self time is its
// duration minus the part its direct children cover.

// Timelines: the engine owns 1 (stages), 2 (multi-log) and 3 (edge log);
// the benchmark's own spans share 1 so they enclose the engine's, and the
// serve_mixed mutator connection gets its own.
const (
	tidMain    = 1
	tidMutator = 4
)

type span struct {
	Name   string
	Cat    string
	Tid    int
	Start  time.Duration
	Dur    time.Duration
	Args   map[string]int64
	Parent int // index into the slice, -1 for a root
	Self   time.Duration
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// resolveSpans turns completed trace events into spans with parent links
// and self times.
func resolveSpans(events []obsv.Event) []span {
	spans := make([]span, len(events))
	for i, ev := range events {
		args := make(map[string]int64, len(ev.Args))
		for _, a := range ev.Args {
			args[a.Key] = a.Val
		}
		spans[i] = span{Name: ev.Name, Cat: ev.Cat, Tid: ev.Tid, Start: ev.Start, Dur: ev.Dur, Args: args, Parent: -1, Self: ev.Dur}
	}
	// Outer spans first: by timeline, then start, then longest first.
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Dur > b.Dur
	})
	var stack []int // open ancestors on the current timeline
	for i := range spans {
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Tid == spans[i].Tid && spans[i].Start >= top.Start && spans[i].end() <= top.end() {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			spans[i].Parent = p
			spans[p].Self -= spans[i].Dur
		}
		stack = append(stack, i)
	}
	return spans
}

// selfTimeUnder sums, per span name, the self time of every span nested
// (at any depth) under root, root itself included.
func selfTimeUnder(spans []span, root int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := range spans {
		for p := i; p >= 0; p = spans[p].Parent {
			if p == root {
				out[spans[i].Name] += spans[i].Self
				break
			}
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON (Perfetto,
// chrome://tracing). Each event's args carry the workload, the parent
// span's name and the span's self time next to the emitter's own args.
func writeChromeTrace(path, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"workload": workload, "self_us": us(s.Self)}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: s.Tid, Ts: us(s.Start), Dur: us(s.Dur), Args: args})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
