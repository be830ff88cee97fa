package vc

import (
	"testing"

	"multilogvc/internal/graphio"
)

func TestFindSource(t *testing.T) {
	sources := []uint32{2, 5, 9, 100}
	cases := []struct {
		src  uint32
		want int
	}{{2, 0}, {5, 1}, {100, 3}, {3, -1}, {0, -1}, {101, -1}}
	for _, c := range cases {
		if got := FindSource(sources, c.src); got != c.want {
			t.Errorf("FindSource(%d) = %d, want %d", c.src, got, c.want)
		}
	}
	if got := FindSource(nil, 1); got != -1 {
		t.Errorf("FindSource(nil) = %d", got)
	}
}

func TestHash64Deterministic(t *testing.T) {
	a := Hash64(1, 2, 3)
	b := Hash64(1, 2, 3)
	if a != b {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2, 3) == Hash64(1, 2, 4) {
		t.Fatal("Hash64 collision on trivially different keys")
	}
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 should be order sensitive")
	}
}

func TestHash64Distribution(t *testing.T) {
	// Crude uniformity check: buckets of low bits should be balanced.
	const buckets = 16
	counts := make([]int, buckets)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		counts[Hash64(42, uint64(i))%buckets]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bucket %d has %d of %d (expected ~%d)", b, c, n, want)
		}
	}
}

// chainProg propagates a counter down a chain graph, for exercising the
// reference engine's BSP semantics.
type chainProg struct{}

func (chainProg) Name() string                 { return "chain" }
func (chainProg) InitValue(v, n uint32) uint32 { return 0 }
func (chainProg) InitActive(n uint32) InitSet  { return InitSet{Verts: []uint32{0}} }
func (chainProg) Process(ctx Context, msgs []Msg) {
	if ctx.Superstep() == 0 {
		ctx.SetValue(1)
		for _, dst := range ctx.OutEdges() {
			ctx.Send(dst, 1)
		}
	} else {
		var best uint32
		for _, m := range msgs {
			if m.Data > best {
				best = m.Data
			}
		}
		if best+0 > 0 && ctx.Value() == 0 {
			ctx.SetValue(best + 1)
			for _, dst := range ctx.OutEdges() {
				ctx.Send(dst, best+1)
			}
		}
	}
	ctx.VoteToHalt()
}

func TestRefEngineChain(t *testing.T) {
	// 0 -> 1 -> 2 -> 3
	edges := []graphio.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	eng := NewRef(edges, 4)
	res := eng.Run(chainProg{}, 100)
	want := []uint32{1, 2, 3, 4}
	for v, w := range want {
		if res.Values[v] != w {
			t.Fatalf("values = %v, want %v", res.Values, want)
		}
	}
	if !res.Converged {
		t.Fatal("chain should converge")
	}
	if res.Supersteps != 5 { // 4 propagation steps + 1 empty-check... steps 0..3 send, step 4 digest
		t.Logf("supersteps = %d", res.Supersteps)
	}
	// Activity: one vertex active per superstep while propagating.
	if res.ActivePerStep[0] != 1 {
		t.Fatalf("ActivePerStep = %v", res.ActivePerStep)
	}
}

func TestRefEngineMaxSupersteps(t *testing.T) {
	edges := []graphio.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	eng := NewRef(edges, 2)
	// pingpong forever
	res := eng.Run(pingpong{}, 7)
	if res.Supersteps != 7 {
		t.Fatalf("supersteps = %d, want 7", res.Supersteps)
	}
	if res.Converged {
		t.Fatal("should not converge")
	}
}

type pingpong struct{}

func (pingpong) Name() string                 { return "pingpong" }
func (pingpong) InitValue(v, n uint32) uint32 { return 0 }
func (pingpong) InitActive(n uint32) InitSet  { return InitSet{All: true} }
func (pingpong) Process(ctx Context, msgs []Msg) {
	for _, dst := range ctx.OutEdges() {
		ctx.Send(dst, 1)
	}
	ctx.VoteToHalt()
}

// haltProg verifies vote-to-halt semantics: vertices that never receive
// messages and vote to halt stop being processed.
type haltProg struct{ processed map[uint32]int }

func (h haltProg) Name() string                 { return "halt" }
func (h haltProg) InitValue(v, n uint32) uint32 { return 0 }
func (h haltProg) InitActive(n uint32) InitSet  { return InitSet{All: true} }
func (h haltProg) Process(ctx Context, msgs []Msg) {
	h.processed[ctx.Vertex()]++
	ctx.VoteToHalt()
}

func TestRefEngineHalt(t *testing.T) {
	eng := NewRef([]graphio.Edge{{Src: 0, Dst: 1}}, 2)
	h := haltProg{processed: map[uint32]int{}}
	res := eng.Run(h, 10)
	if h.processed[0] != 1 || h.processed[1] != 1 {
		t.Fatalf("processed = %v, want once each", h.processed)
	}
	if !res.Converged || res.Supersteps != 1 {
		t.Fatalf("supersteps = %d converged = %v", res.Supersteps, res.Converged)
	}
}

// stayProg never votes to halt; it must be processed every superstep.
type stayProg struct{ processed *int }

func (s stayProg) Name() string                 { return "stay" }
func (s stayProg) InitValue(v, n uint32) uint32 { return 0 }
func (s stayProg) InitActive(n uint32) InitSet  { return InitSet{Verts: []uint32{0}} }
func (s stayProg) Process(ctx Context, msgs []Msg) {
	*s.processed++
}

func TestRefEngineStayActive(t *testing.T) {
	eng := NewRef([]graphio.Edge{{Src: 0, Dst: 1}}, 2)
	n := 0
	eng.Run(stayProg{processed: &n}, 5)
	if n != 5 {
		t.Fatalf("processed %d times, want 5", n)
	}
}

func TestRefWeighted(t *testing.T) {
	wedges := []graphio.WeightedEdge{
		{Src: 0, Dst: 1, Weight: 9}, {Src: 1, Dst: 2, Weight: 3},
	}
	eng := NewRefWeighted(wedges, 3)
	var gotW []uint32
	probe := probeProg{onProcess: func(ctx Context) {
		if ctx.Vertex() == 0 {
			gotW = append(gotW, ctx.OutWeights()...)
		}
		ctx.VoteToHalt()
	}}
	eng.Run(probe, 2)
	if len(gotW) != 1 || gotW[0] != 9 {
		t.Fatalf("OutWeights = %v", gotW)
	}
}

type probeProg struct{ onProcess func(ctx Context) }

func (probeProg) Name() string                   { return "probe" }
func (probeProg) InitValue(v, n uint32) uint32   { return 0 }
func (probeProg) InitActive(n uint32) InitSet    { return InitSet{All: true} }
func (p probeProg) Process(ctx Context, _ []Msg) { p.onProcess(ctx) }

// mutatorProbe adds an edge 0->2 in superstep 0 and records whether it is
// visible in superstep 1 (it must be) but not in superstep 0.
type mutatorProbe struct{ sawEarly, sawLate *bool }

func (mutatorProbe) Name() string                 { return "mutprobe" }
func (mutatorProbe) InitValue(v, n uint32) uint32 { return 0 }
func (mutatorProbe) InitActive(n uint32) InitSet  { return InitSet{Verts: []uint32{0}} }
func (m mutatorProbe) Process(ctx Context, _ []Msg) {
	switch ctx.Superstep() {
	case 0:
		if mu, ok := ctx.(Mutator); ok {
			mu.AddEdge(0, 2, 1)
		}
		for _, d := range ctx.OutEdges() {
			if d == 2 {
				*m.sawEarly = true
			}
		}
	case 1:
		for _, d := range ctx.OutEdges() {
			if d == 2 {
				*m.sawLate = true
			}
		}
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

func TestRefMutatorBoundarySemantics(t *testing.T) {
	eng := NewRef([]graphio.Edge{{Src: 0, Dst: 1}}, 3)
	early, late := false, false
	eng.Run(mutatorProbe{sawEarly: &early, sawLate: &late}, 5)
	if early {
		t.Fatal("mutation visible within the same superstep")
	}
	if !late {
		t.Fatal("mutation not visible in the next superstep")
	}
}

func TestRefMutatorRemove(t *testing.T) {
	eng := NewRef([]graphio.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, 3)
	removed := false
	probe := probeProg{onProcess: func(ctx Context) {
		if ctx.Vertex() != 0 {
			ctx.VoteToHalt()
			return
		}
		switch ctx.Superstep() {
		case 0:
			ctx.(Mutator).RemoveEdge(0, 1)
		case 1:
			removed = true
			for _, d := range ctx.OutEdges() {
				if d == 1 {
					removed = false
				}
			}
			ctx.VoteToHalt()
		}
	}}
	eng.Run(probe, 5)
	if !removed {
		t.Fatal("RemoveEdge did not take effect at the superstep boundary")
	}
}
