package gen

import (
	"sort"
	"testing"

	"multilogvc/internal/graphio"
)

func checkUndirected(t *testing.T, edges []graphio.Edge) {
	t.Helper()
	set := make(map[graphio.Edge]bool, len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			t.Fatalf("self loop %v", e)
		}
		if set[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		set[e] = true
	}
	for e := range set {
		if !set[graphio.Edge{Src: e.Dst, Dst: e.Src}] {
			t.Fatalf("missing reverse of %v", e)
		}
	}
}

func TestRMATBasic(t *testing.T) {
	cfg := DefaultRMAT(10, 8, 1)
	edges, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("no edges generated")
	}
	n := graphio.NumVertices(edges)
	if n > 1024 {
		t.Fatalf("vertex id out of range: %d", n)
	}
	checkUndirected(t, edges)
}

func TestRMATDeterministic(t *testing.T) {
	a, _ := RMAT(DefaultRMAT(8, 4, 99))
	b, _ := RMAT(DefaultRMAT(8, 4, 99))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	c, _ := RMAT(DefaultRMAT(8, 4, 100))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATPowerLawSkew(t *testing.T) {
	edges, err := RMAT(DefaultRMAT(12, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(1 << 12)
	deg := graphio.OutDegrees(edges, n)
	sorted := make([]int, 0, n)
	for _, d := range deg {
		sorted = append(sorted, int(d))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, d := range sorted {
		total += d
	}
	top := 0
	for _, d := range sorted[:len(sorted)/10] {
		top += d
	}
	// Power-law: top 10% of vertices should own well over 10% of edges.
	if float64(top) < 0.3*float64(total) {
		t.Fatalf("degree distribution not skewed: top 10%% owns %d/%d edges", top, total)
	}
}

func TestRMATErrors(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: 0, EdgeFactor: 1, A: 0.5, B: 0.2, C: 0.2}); err == nil {
		t.Fatal("scale 0 should fail")
	}
	if _, err := RMAT(RMATConfig{Scale: 5, EdgeFactor: 0, A: 0.5, B: 0.2, C: 0.2}); err == nil {
		t.Fatal("edge factor 0 should fail")
	}
	if _, err := RMAT(RMATConfig{Scale: 5, EdgeFactor: 1, A: 0.9, B: 0.2, C: 0.2}); err == nil {
		t.Fatal("probabilities > 1 should fail")
	}
}

func TestUniform(t *testing.T) {
	edges, err := Uniform(100, 500, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	checkUndirected(t, edges)
	if graphio.NumVertices(edges) > 100 {
		t.Fatal("vertex out of range")
	}
	if _, err := Uniform(1, 5, 3, true); err == nil {
		t.Fatal("n=1 should fail")
	}
	directed, err := Uniform(50, 100, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(directed); i++ {
		if directed[i] == directed[i-1] {
			t.Fatal("directed output not deduplicated")
		}
	}
}

func TestGrid(t *testing.T) {
	edges, err := Grid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkUndirected(t, edges)
	// 4x5 grid: 4*(5-1) horizontal + (4-1)*5 vertical = 31 undirected
	// pairs = 62 directed edges.
	if len(edges) != 62 {
		t.Fatalf("grid edges = %d, want 62", len(edges))
	}
	if _, err := Grid(0, 5); err == nil {
		t.Fatal("0 rows should fail")
	}
}

func TestGridDegrees(t *testing.T) {
	edges, _ := Grid(3, 3)
	deg := graphio.OutDegrees(edges, 9)
	// Corner vertex 0 has degree 2; center vertex 4 has degree 4.
	if deg[0] != 2 || deg[4] != 4 {
		t.Fatalf("grid degrees wrong: %v", deg)
	}
}

func TestSmallWorld(t *testing.T) {
	edges, err := SmallWorld(16, 16, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkUndirected(t, edges)
	grid, _ := Grid(16, 16)
	if len(edges) <= len(grid) {
		t.Fatalf("no shortcuts added: %d <= %d", len(edges), len(grid))
	}
	if _, err := SmallWorld(0, 16, 5, 3); err == nil {
		t.Fatal("bad dimensions should fail")
	}
}

func TestPlantedPartition(t *testing.T) {
	edges, err := PlantedPartition(4, 50, 8, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkUndirected(t, edges)
	if graphio.NumVertices(edges) > 200 {
		t.Fatal("vertex out of range")
	}
	// Count within- vs cross-community edges; within should dominate.
	within, cross := 0, 0
	for _, e := range edges {
		if e.Src/50 == e.Dst/50 {
			within++
		} else {
			cross++
		}
	}
	if within < 5*cross {
		t.Fatalf("community structure too weak: within=%d cross=%d", within, cross)
	}
	if _, err := PlantedPartition(0, 50, 8, 1, 5); err == nil {
		t.Fatal("0 groups should fail")
	}
}

func BenchmarkRMATScale14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(DefaultRMAT(14, 16, 42)); err != nil {
			b.Fatal(err)
		}
	}
}
