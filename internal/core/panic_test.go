package core

import (
	"errors"
	"strings"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/grafboost"
	"multilogvc/internal/graphchi"
	"multilogvc/internal/vc"
)

// panicProg is a BFS whose Process panics the moment it runs — the
// stand-in for a bug in program or engine internals.
type panicProg struct{ apps.BFS }

func (p *panicProg) Process(ctx vc.Context, msgs []vc.Msg) {
	panic("injected program panic")
}

// TestEnginePanicContained: a panic inside a vertex worker surfaces as a
// classified ErrPanic from RunCtx instead of killing the process — on the
// baselines too, which share the worker pool — the run's ephemeral scratch
// is swept during unwinding, and the same engine stack still computes
// correct results afterwards.
func TestEnginePanicContained(t *testing.T) {
	edges, n := rmatEdges(t, 8, 8, 71)
	g := buildGraph(t, edges, n, 2048)
	dev := g.Device()

	prog := &panicProg{apps.BFS{Source: 1}}
	res, err := New(g, Config{MaxSupersteps: 10, RunTag: "pt", Ephemeral: true}).Run(prog)
	if err == nil {
		t.Fatal("panicking program returned nil error")
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("error %v does not wrap ErrPanic", err)
	}
	if res != nil {
		t.Fatalf("panicking run returned a result: %+v", res)
	}
	for _, name := range dev.ListFiles() {
		if strings.HasPrefix(name, "g.pt.") {
			t.Fatalf("ephemeral scratch %q survived the panic", name)
		}
	}

	if _, err := graphchi.New(g, graphchi.Config{MaxSupersteps: 10}).Run(prog); !errors.Is(err, ErrPanic) {
		t.Fatalf("graphchi: error %v does not wrap ErrPanic", err)
	}
	if _, err := grafboost.New(g, grafboost.Config{MaxSupersteps: 10}).Run(prog); !errors.Is(err, ErrPanic) {
		t.Fatalf("grafboost: error %v does not wrap ErrPanic", err)
	}

	// The graph and device are untouched: a clean run still matches the
	// reference.
	got, err := New(g, Config{MaxSupersteps: 100}).Run(&apps.BFS{Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := vc.NewRef(edges, n).Run(&apps.BFS{Source: 1}, 100)
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			t.Fatalf("post-panic value[%d] = %d, want %d", v, got.Values[v], want.Values[v])
		}
	}
}
