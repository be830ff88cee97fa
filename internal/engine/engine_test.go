package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/grafboost"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

const memBudget = 256 << 10

// build places a fixed R-MAT graph on a fresh device, so every run starts
// from the same files and its page counters compare exactly.
func build(t *testing.T) *csr.Graph {
	t.Helper()
	edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	g, err := csr.Build(ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4}), "g", edges,
		csr.BuildOptions{NumVertices: 1 << 9, IntervalBudget: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func run(t *testing.T, prog vc.Program, o Options) *superstep.Result {
	t.Helper()
	res, err := Run(build(t), memBudget, prog, o)
	if err != nil {
		t.Fatalf("%s: %v", o.Engine, err)
	}
	return res
}

// TestRunEveryKind drives each engine kind through the one switch and
// checks that every option reaches it.
func TestRunEveryKind(t *testing.T) {
	pagerank := func() vc.Program { return &apps.PageRank{} }
	for _, tc := range []struct {
		kind Kind
		prog func() vc.Program
	}{
		{MultiLog, pagerank},
		{GraphChi, pagerank},
		{GraFBoost, pagerank},
		// Coloring has no combiner: only the adapted single log runs it.
		{GraFBoostAdapted, func() vc.Program { return &apps.Coloring{} }},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			if k, err := Parse(tc.kind.String()); err != nil || k != tc.kind {
				t.Fatalf("Parse(%q) = %v, %v", tc.kind.String(), k, err)
			}

			tr := obsv.NewTrace()
			res := run(t, tc.prog(), Options{Engine: tc.kind, MaxSupersteps: 3, Trace: tr})
			if res.Report.Engine != tc.kind.String() {
				t.Fatalf("report engine %q, want %q", res.Report.Engine, tc.kind.String())
			}
			if n := len(res.Report.Supersteps); n != 3 {
				t.Fatalf("MaxSupersteps 3 ran %d supersteps", n)
			}
			spans := 0
			for _, ev := range tr.Events() {
				if ev.Cat == "engine" && ev.Name == "superstep" {
					spans++
				}
			}
			if spans != 3 {
				t.Fatalf("trace holds %d superstep spans, want 3", spans)
			}

			res = run(t, tc.prog(), Options{Engine: tc.kind,
				StopAfter: func(step int, _ uint64) bool { return step == 1 }})
			if n := len(res.Report.Supersteps); n != 2 {
				t.Fatalf("StopAfter at superstep 1 ran %d supersteps", n)
			}

			one := run(t, tc.prog(), Options{Engine: tc.kind, MaxSupersteps: 5, Workers: 1})
			four := run(t, tc.prog(), Options{Engine: tc.kind, MaxSupersteps: 5, Workers: 4})
			a, b := one.Report, four.Report
			if a.PagesRead != b.PagesRead || a.PagesWritten != b.PagesWritten {
				t.Fatalf("pages read/written %d/%d at 1 worker, %d/%d at 4",
					a.PagesRead, a.PagesWritten, b.PagesRead, b.PagesWritten)
			}
			if !reflect.DeepEqual(one.Values, four.Values) {
				t.Fatal("values differ between 1 and 4 workers")
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := Run(build(t), memBudget, tc.prog(), Options{Engine: tc.kind, Context: ctx})
			want := context.Canceled // the baselines have no checkpoints
			if tc.kind == MultiLog {
				want = core.ErrInterrupted
			}
			if !errors.Is(err, want) {
				t.Fatalf("cancelled run: %v, want %v", err, want)
			}
		})
	}
}

// TestRunRejects covers the errors the switch itself decides.
func TestRunRejects(t *testing.T) {
	if _, err := Parse("zzz"); err == nil {
		t.Fatal("Parse accepted an unknown name")
	}
	_, err := Run(build(t), memBudget, &apps.PageRank{}, Options{Engine: Kind(7)})
	if err == nil || !strings.Contains(err.Error(), "7") {
		t.Fatalf("out-of-range kind: %v, want an error naming 7", err)
	}
	if s := Kind(7).String(); s == MultiLog.String() {
		t.Fatalf("Kind(7) is named %q", s)
	}
	_, err = Run(build(t), memBudget, &apps.Coloring{}, Options{Engine: GraFBoost})
	if !errors.Is(err, grafboost.ErrNeedsCombiner) {
		t.Fatalf("GraFBoost on a program without a combiner: %v, want ErrNeedsCombiner", err)
	}
}
