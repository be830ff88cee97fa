package multilogvc

import (
	"errors"
	"strings"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/vc"
)

// TestEveryEngineRunsOnTheCSR: the device's CSR is a graph's only copy, so
// every engine sees exactly the structural updates the CSR accepted, and
// reopening a graph reads none of its edges.
func TestEveryEngineRunsOnTheCSR(t *testing.T) {
	runAll := func(t *testing.T, g *Graph, prog func() Program, engines ...Engine) [][]uint32 {
		t.Helper()
		var out [][]uint32
		for _, eng := range engines {
			res, err := g.Run(prog(), RunOptions{Engine: eng, MaxSupersteps: 50})
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			out = append(out, res.Values)
		}
		return out
	}
	equal := func(t *testing.T, what string, want, got []uint32) {
		t.Helper()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: value[%d] = %d, want %d", what, v, got[v], want[v])
			}
		}
	}

	t.Run("rejected-add", func(t *testing.T) {
		sys, err := NewSystem(SystemOptions{PageSize: 512, Channels: 4})
		if err != nil {
			t.Fatal(err)
		}
		edges, err := RMAT(8, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sys.BuildGraph("g", edges, GraphOptions{MemoryBudget: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(0, g.NumVertices()+5); !errors.Is(err, csr.ErrVertexOutOfRange) {
			t.Fatalf("AddEdge past the last vertex: err = %v, want ErrVertexOutOfRange", err)
		}
		got := runAll(t, g, func() Program { return NewBFS(0) }, EngineMultiLog, EngineGraphChi)
		equal(t, "graphchi", got[0], got[1])
	})

	t.Run("weighted-add-remove", func(t *testing.T) {
		sys, err := NewSystem(SystemOptions{PageSize: 512, Channels: 4})
		if err != nil {
			t.Fatal(err)
		}
		g, err := sys.BuildWeightedGraph("w", []WeightedEdge{
			{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 5}, {Src: 2, Dst: 3, Weight: 2},
			{Src: 0, Dst: 3, Weight: 30},
		}, GraphOptions{NumVertices: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddWeightedEdge(1, 2, 50); err != nil {
			t.Fatal(err)
		}
		if err := g.RemoveEdge(1, 2); err != nil {
			t.Fatal(err)
		}
		var current []WeightedEdge
		var a csr.Arena
		for iv, interval := range g.g.Intervals() {
			verts := interval.AppendVerts(nil)
			a.Reset(len(verts), true)
			if _, err := g.g.FillOutEdges(iv, verts, nil, &a); err != nil {
				t.Fatal(err)
			}
			for i, v := range verts {
				for j, nb := range a.Edges(i) {
					current = append(current, WeightedEdge{Src: v, Dst: nb, Weight: a.Weights(i)[j]})
				}
			}
		}
		want := vc.NewRefWeighted(current, g.NumVertices()).Run(NewSSSP(0), 50).Values
		got := runAll(t, g, func() Program { return NewSSSP(0) }, EngineMultiLog, EngineGraphChi, EngineGraFBoost)
		for i, eng := range []Engine{EngineMultiLog, EngineGraphChi, EngineGraFBoost} {
			equal(t, eng.String(), want, got[i])
		}
	})

	t.Run("open-reads-no-edges", func(t *testing.T) {
		dir := t.TempDir()
		build, err := NewSystem(SystemOptions{PageSize: 512, Channels: 2, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		edges, _ := Grid(8, 8)
		if _, err := build.BuildWeightedGraph("persisted", RandomWeights(edges, 5, 3), GraphOptions{}); err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(SystemOptions{PageSize: 512, Channels: 2, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.OpenGraph("persisted", 0); err != nil {
			t.Fatal(err)
		}
		for name, st := range sys.Device().StatsByFile() {
			isEdges := strings.Contains(name, ".rowptr.") || strings.Contains(name, ".colidx.") || strings.Contains(name, ".val.")
			if isEdges && st.PagesRead != 0 {
				t.Errorf("OpenGraph read %d pages of %s", st.PagesRead, name)
			}
		}
	})
}
