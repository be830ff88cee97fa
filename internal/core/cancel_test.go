package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// cancelProg is a BFS whose first Process call runs stop.
type cancelProg struct {
	apps.BFS
	stop func()
}

func (p *cancelProg) Process(ctx vc.Context, msgs []vc.Msg) {
	p.stop()
	p.BFS.Process(ctx, msgs)
}

// TestCancelMidSuperstepIsInterrupted: a cancellation that the device retry
// layer sees inside a superstep, not at a boundary, still surfaces as
// ErrInterrupted with context.Canceled in the chain, the way a deadline
// there surfaces as ErrDeadline.
func TestCancelMidSuperstepIsInterrupted(t *testing.T) {
	edges, n := rmatEdges(t, 8, 8, 71)
	g := buildGraph(t, edges, n, 2048)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	prog := &cancelProg{BFS: apps.BFS{Source: 1}, stop: func() {
		once.Do(func() {
			cancel()
			// Every later page operation fails transiently, so the retry
			// layer is the first to see the cancelled context.
			g.Device().SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{Prob: 1}})
		})
	}}
	_, err := New(g, Config{MaxSupersteps: 10, Workers: 1}).RunCtx(ctx, prog)
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrInterrupted wrapping context.Canceled", err)
	}
}
