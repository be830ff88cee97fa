package engine

import (
	"slices"
	"sync/atomic"
	"testing"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// dstProbe floods the minimum vertex ID along out-edges and counts the
// messages Process receives, and among them every one whose Dst is not the
// vertex processing it.
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

// perStep is the messages res delivered in each superstep.
func perStep(res *superstep.Result) []uint64 {
	var n []uint64
	for _, ss := range res.Report.Supersteps {
		n = append(n, ss.MsgsDelivered)
	}
	return n
}

// check fails unless Process received want messages (the run's
// MsgsDelivered), all of them addressed to the vertex processing them.
func (p dstProbe) check(t *testing.T, want uint64) {
	t.Helper()
	got := uint64(p.delivered.Load())
	if got == 0 {
		t.Fatal("no message was delivered")
	}
	if got != want {
		t.Fatalf("Process received %d messages, the run delivered %d", got, want)
	}
	if n := p.misaddressed.Load(); n != 0 {
		t.Fatalf("%d of %d delivered messages had Dst != ctx.Vertex()", n, got)
	}
}

// TestMsgDstIsVertex holds every engine to the contract Msg.Dst adds: a
// message reaches Process addressed to the vertex being processed, and
// every message the run delivers reaches Process, though the probe
// implements vc.Combiner. The MultiLogVC rows cover both computation
// models and a batch served through the spill path. The async row runs
// unfused, so a later interval's messages can arrive in the superstep
// that sent them; its per-superstep deliveries must differ from a
// synchronous unfused run's.
func TestMsgDstIsVertex(t *testing.T) {
	for _, tc := range []struct {
		name  string
		o     Options
		spill bool
	}{
		{"multilogvc", Options{}, false},
		{"multilogvc/async", Options{Async: true, DisableFusing: true}, false},
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
			p.check(t, res.Report.MsgsDelivered)
			if tc.o.Async {
				sync := tc.o
				sync.Async = false
				if got, want := perStep(res), perStep(run(t, newDstProbe(), sync)); slices.Equal(got, want) {
					t.Fatalf("async deliveries per superstep %v equal the synchronous run's: no message was delivered forward", got)
				}
			}
		})
	}
	t.Run("reference", func(t *testing.T) {
		edges, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
		if err != nil {
			t.Fatal(err)
		}
		p := newDstProbe()
		res := vc.NewRef(edges, graphio.NumVertices(edges)).Run(p, 6)
		// A superstep delivers what the one before it sent.
		var want uint64
		for _, sent := range res.MsgsPerStep[:len(res.MsgsPerStep)-1] {
			want += sent
		}
		p.check(t, want)
	})
}
