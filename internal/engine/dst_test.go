package engine

import (
	"sync/atomic"
	"testing"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/vc"
)

// dstProbe floods the minimum vertex ID along out-edges and counts every
// message Process receives whose Dst is not the vertex processing it.
type dstProbe struct {
	delivered, misaddressed *atomic.Int64
}

func newDstProbe() dstProbe { return dstProbe{new(atomic.Int64), new(atomic.Int64)} }

func (dstProbe) Name() string                 { return "dst-probe" }
func (dstProbe) InitValue(v, _ uint32) uint32 { return v }
func (dstProbe) InitActive(uint32) vc.InitSet { return vc.InitSet{All: true} }
func (dstProbe) Combine(a, b uint32) uint32   { return min(a, b) }
func (p dstProbe) Process(ctx vc.Context, msgs []vc.Msg) {
	p.delivered.Add(int64(len(msgs)))
	label := ctx.Value()
	for _, m := range msgs {
		if m.Dst != ctx.Vertex() {
			p.misaddressed.Add(1)
		}
		label = min(label, m.Data)
	}
	if ctx.Superstep() == 0 || label < ctx.Value() {
		ctx.SetValue(label)
		for _, dst := range ctx.OutEdges() {
			ctx.Send(dst, label)
		}
	}
	ctx.VoteToHalt()
}

func (p dstProbe) check(t *testing.T) {
	t.Helper()
	if p.delivered.Load() == 0 {
		t.Fatal("no message was delivered")
	}
	if n := p.misaddressed.Load(); n != 0 {
		t.Fatalf("%d of %d delivered messages had Dst != ctx.Vertex()", n, p.delivered.Load())
	}
}

// TestMsgDstIsVertex holds every engine to the contract Msg.Dst adds: a
// message reaches Process addressed to the vertex being processed. The
// MultiLogVC rows cover both computation models, the combiner folding in
// place or switched off, and a batch served through the spill path.
func TestMsgDstIsVertex(t *testing.T) {
	for _, tc := range []struct {
		name  string
		o     Options
		spill bool
	}{
		{"multilogvc", Options{}, false},
		{"multilogvc/async", Options{Async: true}, false},
		{"multilogvc/no-combiner", Options{DisableCombiner: true}, false},
		{"multilogvc/async/no-combiner", Options{Async: true, DisableCombiner: true}, false},
		{"multilogvc/spilled", Options{SortBudget: 64 * 12}, true},
		{"graphchi", Options{Engine: GraphChi}, false},
		{"grafboost", Options{Engine: GraFBoost}, false},
		{"grafboost-adapted", Options{Engine: GraFBoostAdapted}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newDstProbe()
			tc.o.MaxSupersteps = 6
			res := run(t, p, tc.o)
			if spills := res.Report.Spills; tc.spill != (spills > 0) {
				t.Fatalf("%d spilled batches, want spill %v", spills, tc.spill)
			}
			p.check(t)
		})
	}
	t.Run("reference", func(t *testing.T) {
		edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
		if err != nil {
			t.Fatal(err)
		}
		p := newDstProbe()
		vc.NewRef(edges, graphio.NumVertices(edges)).Run(p, 6)
		p.check(t)
	})
}
