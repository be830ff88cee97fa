package core

import (
	"context"
	"runtime"
	"testing"

	"multilogvc/internal/metrics"
	"multilogvc/internal/sortgroup"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// openRun opens a run the way runOnce does and stops short of the superstep
// loop, so a test can drive single stages.
func openRun(t testing.TB, e *Engine, prog vc.Program) *run {
	t.Helper()
	loop := superstep.Begin(context.Background(), e.cfg.Scope, "multilogvc", prog.Name(), e.g.Name())
	loop.MaxSupersteps = e.cfg.MaxSupersteps
	r := &run{Engine: e, loop: loop, prog: prog, base: e.g.Name(), auxName: prog.Name()}
	if err := r.open(false); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.close()
		loop.End()
	})
	return r
}

// degreeSum stores each vertex's out-degree plus the sum of its neighbour ids
// and stays live without sending: a vertex stage with no message traffic.
type degreeSum struct{}

func (degreeSum) Name() string                    { return "degreesum" }
func (degreeSum) InitValue(uint32, uint32) uint32 { return 0 }
func (degreeSum) InitActive(n uint32) vc.InitSet  { return vc.InitSet{All: true} }
func (degreeSum) Process(ctx vc.Context, _ []vc.Msg) {
	sum := uint32(len(ctx.OutEdges()))
	for _, nb := range ctx.OutEdges() {
		sum += nb
	}
	ctx.SetValue(sum)
}

// A device that fails in the middle of a send drain leaves MsgsSent equal to
// the records the logs took — not a lower bound.
func TestMsgsSentExactWhenDrainFails(t *testing.T) {
	edges, n := rmatEdges(t, 10, 8, 2)
	for _, async := range []bool{false, true} {
		g := buildGraph(t, edges, n, 2048)
		dev := g.Device()
		// The floor budget — one 512 B page per interval — so a few thousand
		// sends evict many times over.
		r := openRun(t, New(g, Config{MemoryBudget: 1, Workers: 2, Async: async}), degreeSum{})
		for i := uint32(0); i < 6000; i++ {
			r.sends.Send(int(i%2), i%n, (i*7919)%n, i)
		}
		var ss metrics.SuperstepStats
		b := &batch{run: r, sg: &sortgroup.Batch{LastIv: len(g.Intervals()) / 2}, ss: &ss}
		dev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: 5})
		err := b.drainSends()
		dev.SetFaults(ssd.FaultPlan{})
		if err == nil {
			t.Fatalf("async %v: the drain outlived the device", async)
		}
		logged := r.nextLog.Total() + r.curLog.Total()
		if ss.MsgsSent != logged || logged == 0 || logged >= 6000 {
			t.Fatalf("async %v: MsgsSent %d, the logs hold %d of the 6000 sent (err %v)", async, ss.MsgsSent, logged, err)
		}
		if async && (r.curLog.Total() == 0 || r.nextLog.Total() == 0) {
			t.Fatalf("async: forward and backward sends expected in both generations, got cur %d next %d", r.curLog.Total(), r.nextLog.Total())
		}
	}
}

// A steady-state vertex stage allocates the same few objects whether the
// batch holds tens of vertices or thousands: nothing per vertex, nothing per
// edge, nothing per fused interval.
func TestProcessBatchAllocsIndependentOfBatchSize(t *testing.T) {
	edges, n := rmatEdges(t, 11, 8, 4)
	g := buildGraph(t, edges, n, 4096)
	ivs := g.Intervals()
	if len(ivs) < 8 {
		t.Fatalf("only %d intervals", len(ivs))
	}
	r := openRun(t, New(g, Config{Workers: 1, DisableEdgeLog: true}), degreeSum{})
	var ss metrics.SuperstepStats
	small := &sortgroup.Batch{FirstIv: 0, LastIv: 0, Lo: ivs[0].Lo, Hi: ivs[0].Hi}
	large := &sortgroup.Batch{FirstIv: 0, LastIv: len(ivs) - 1, Lo: 0, Hi: n}
	stage := func(sg *sortgroup.Batch) func() {
		return func() {
			if err := r.processBatch(sg, &ss); err != nil {
				t.Fatal(err)
			}
		}
	}
	stage(large)() // grow the plane to the largest batch once
	if r.vertexPlane.bytes() == 0 {
		t.Fatal("the plane did not survive the batch; the test measures nothing")
	}
	smallAllocs := testing.AllocsPerRun(20, stage(small))
	active := ss.Active
	largeAllocs := testing.AllocsPerRun(20, stage(large))
	perLarge := (ss.Active - active) / 21
	if perLarge != uint64(n) || uint32(len(r.verts)) != n {
		t.Fatalf("the large batch processed %d vertices, want %d", perLarge, n)
	}
	if largeAllocs > smallAllocs || largeAllocs > 16 {
		t.Fatalf("%d vertices over %d intervals: %.0f allocs per batch; %d vertices over one: %.0f",
			n, len(ivs), largeAllocs, ivs[0].Len(), smallAllocs)
	}

	// And the stage computed what the program says.
	vals, err := r.values.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, n)
	for _, e := range edges {
		want[e.Src] += 1 + e.Dst
	}
	for v := range want {
		if vals[v] != want[v] {
			t.Fatalf("value[%d] = %d, want %d", v, vals[v], want[v])
		}
	}
}

// A run keeps its plane from batch to batch: in the serving shape a second
// pass over the intervals allocates next to nothing, where re-reserving the
// arena after every batch would cost the plane's size each time.
func TestServingBatchesReusePlane(t *testing.T) {
	g := servingGraph(t)
	r := openRun(t, New(g, Config{MemoryBudget: servingBudget, Workers: 1}), degreeSum{})
	var ss metrics.SuperstepStats
	pass := func() (largest int) {
		for iv, span := range g.Intervals() {
			if err := r.processBatch(&sortgroup.Batch{FirstIv: iv, LastIv: iv, Lo: span.Lo, Hi: span.Hi}, &ss); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, r.vertexPlane.bytes())
		}
		return largest
	}
	kept := pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(kept)/8 {
		t.Fatalf("a second pass over %d intervals allocated %d bytes beside a %d-byte plane", len(g.Intervals()), grew, kept)
	}
}

// BenchmarkVertexStage: one steady-state processBatch over the whole graph —
// active set, value pages, adjacency into the arena, Process on every vertex,
// flush — with no message traffic, so it prices the vertex-data plane alone.
// ns/vertex and allocs/op are the numbers to read; ns/unit is the cost per
// out-edge, the unit superstep.ForEach's work rule counts.
func BenchmarkVertexStage(b *testing.B) {
	edges, n := rmatEdges(b, 14, 12, 1)
	g := buildGraph(b, edges, n, 1<<16)
	r := openRun(b, New(g, Config{Workers: 1, DisableEdgeLog: true}), degreeSum{})
	var ss metrics.SuperstepStats
	sg := &sortgroup.Batch{FirstIv: 0, LastIv: len(g.Intervals()) - 1, Lo: 0, Hi: n}
	if err := r.processBatch(sg, &ss); err != nil { // grow the plane once
		b.Fatal(err)
	}
	ss = metrics.SuperstepStats{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.processBatch(sg, &ss); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ss.Active), "ns/vertex")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*g.NumEdges()), "ns/unit")
}
