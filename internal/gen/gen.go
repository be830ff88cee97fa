// Package gen generates synthetic graphs.
//
// The paper evaluates on com-friendster (power-law social graph, avg degree
// ≈29) and the Yahoo Webscope web graph (sparser, avg degree ≈9). Neither
// is available offline, so the experiment harness uses R-MAT analogs with
// matching degree shape, as documented in DESIGN.md. All generators are
// deterministic given a seed.
package gen

import (
	"fmt"
	"math/rand"

	"multilogvc/internal/graphio"
)

// RMATConfig configures the recursive-matrix (R-MAT) generator of
// Chakrabarti et al., the standard power-law graph model (Graph500 uses
// a=0.57, b=c=0.19, d=0.05).
type RMATConfig struct {
	Scale      int     // number of vertices = 2^Scale
	EdgeFactor int     // directed edges generated = EdgeFactor × 2^Scale
	A, B, C    float64 // quadrant probabilities; D = 1-A-B-C
	Seed       int64
	Undirected bool // if set, output is the deduplicated symmetric closure
}

// DefaultRMAT returns the Graph500 parameterization at the given scale.
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19,
		Seed: seed, Undirected: true,
	}
}

// RMAT generates an R-MAT graph.
func RMAT(cfg RMATConfig) ([]graphio.Edge, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: rmat scale %d out of range [1,30]", cfg.Scale)
	}
	if cfg.EdgeFactor < 1 {
		return nil, fmt.Errorf("gen: rmat edge factor %d < 1", cfg.EdgeFactor)
	}
	d := 1 - cfg.A - cfg.B - cfg.C
	if cfg.A < 0 || cfg.B < 0 || cfg.C < 0 || d < 0 {
		return nil, fmt.Errorf("gen: rmat probabilities (%v,%v,%v) invalid", cfg.A, cfg.B, cfg.C)
	}
	n := 1 << cfg.Scale
	m := cfg.EdgeFactor * n
	rng := rand.New(rand.NewSource(cfg.Seed))
	edges := make([]graphio.Edge, 0, m)
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: no bits set
			case r < cfg.A+cfg.B:
				dst |= 1 << bit
			case r < cfg.A+cfg.B+cfg.C:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges = append(edges, graphio.Edge{Src: uint32(src), Dst: uint32(dst)})
	}
	if cfg.Undirected {
		edges = graphio.MakeUndirected(edges)
	} else {
		edges = graphio.Dedup(edges)
	}
	return edges, nil
}

// Uniform generates an Erdős–Rényi-style G(n, m) graph: m directed edges
// drawn uniformly (before dedup/symmetrization).
func Uniform(n uint32, m int, seed int64, undirected bool) ([]graphio.Edge, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: uniform needs n >= 2, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graphio.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graphio.Edge{
			Src: uint32(rng.Int63n(int64(n))),
			Dst: uint32(rng.Int63n(int64(n))),
		})
	}
	if undirected {
		return graphio.MakeUndirected(edges), nil
	}
	return graphio.Dedup(edges), nil
}

// Grid generates an undirected 2-D grid graph of rows×cols vertices with
// 4-neighborhood connectivity. Grids have uniform low degree, the opposite
// extreme from power-law graphs; useful for edge cases in tests.
func Grid(rows, cols int) ([]graphio.Edge, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("gen: grid %dx%d invalid", rows, cols)
	}
	if rows*cols > 1<<28 {
		return nil, fmt.Errorf("gen: grid %dx%d too large", rows, cols)
	}
	var edges []graphio.Edge
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graphio.Edge{Src: id(r, c), Dst: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graphio.Edge{Src: id(r, c), Dst: id(r+1, c)})
			}
		}
	}
	return graphio.MakeUndirected(edges), nil
}

// SmallWorld generates a rows×cols grid with `shortcuts` extra random
// long-range edges (Watts–Strogatz-flavored). BFS frontiers on it expand
// gradually over tens of supersteps — the long-tail depth structure of
// large web graphs — which the traversal-fraction experiments (Fig 5)
// need; power-law analogs at laptop scale have single-digit diameters.
func SmallWorld(rows, cols, shortcuts int, seed int64) ([]graphio.Edge, error) {
	edges, err := Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	n := uint32(rows * cols)
	extra, err := Uniform(n, shortcuts, seed, true)
	if err != nil {
		return nil, err
	}
	return graphio.Dedup(append(edges, extra...)), nil
}

// PlantedPartition generates a graph with `groups` communities of `size`
// vertices each; vertices connect within their community with expected
// degree degIn and across communities with expected degree degOut. Used by
// the community-detection example to verify CDLP finds the planted
// structure.
func PlantedPartition(groups, size int, degIn, degOut float64, seed int64) ([]graphio.Edge, error) {
	if groups < 1 || size < 2 {
		return nil, fmt.Errorf("gen: planted partition groups=%d size=%d invalid", groups, size)
	}
	n := groups * size
	rng := rand.New(rand.NewSource(seed))
	var edges []graphio.Edge
	// Expected within-community edges per community: size*degIn/2.
	inEdges := int(float64(size) * degIn / 2)
	for g := 0; g < groups; g++ {
		base := uint32(g * size)
		// Ring to guarantee connectivity within the community.
		for i := 0; i < size; i++ {
			edges = append(edges, graphio.Edge{
				Src: base + uint32(i),
				Dst: base + uint32((i+1)%size),
			})
		}
		for i := 0; i < inEdges; i++ {
			u := base + uint32(rng.Intn(size))
			v := base + uint32(rng.Intn(size))
			edges = append(edges, graphio.Edge{Src: u, Dst: v})
		}
	}
	outEdges := int(float64(n) * degOut / 2)
	for i := 0; i < outEdges; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		edges = append(edges, graphio.Edge{Src: u, Dst: v})
	}
	return graphio.MakeUndirected(edges), nil
}
