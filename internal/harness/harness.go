// Package harness prepares datasets and drives the engines for the
// experiment suite: it regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) on scaled-down R-MAT
// analogs of com-friendster and the Yahoo Webscope graph.
package harness

import (
	"fmt"

	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/engine"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// Dataset is a named edge list.
type Dataset struct {
	Name  string
	Edges []graphio.Edge
	N     uint32
}

// AvgDegree returns directed edges per vertex.
func (d Dataset) AvgDegree() float64 {
	if d.N == 0 {
		return 0
	}
	return float64(len(d.Edges)) / float64(d.N)
}

// Size selects dataset scale. The paper's graphs have 3.6B/12.9B edges;
// these analogs keep the degree shape at laptop scale.
type Size int

const (
	// Tiny is for unit tests and CI (≈2^10 vertices).
	Tiny Size = iota
	// Small is the default benchmark scale (≈2^13 vertices).
	Small
	// Medium stresses the out-of-core paths (≈2^15 vertices).
	Medium
)

func (s Size) scale() int {
	switch s {
	case Tiny:
		return 10
	case Medium:
		return 15
	default:
		return 13
	}
}

// The datasets' names.
const (
	cfMini      = "cf-mini"
	ywsMini     = "yws-mini"
	webFrontier = "webfrontier-mini"
)

// CFMini generates the com-friendster analog: dense power-law, average
// degree ≈ 24 after symmetrization (paper: 29).
func CFMini(size Size) (Dataset, error) {
	scale := size.scale()
	edges, err := gen.RMAT(gen.DefaultRMAT(scale, 12, 0xCF))
	if err != nil {
		return Dataset{}, err
	}
	return Dataset{Name: cfMini, Edges: edges, N: 1 << scale}, nil
}

// YWSMini generates the Yahoo-Webscope analog: sparser web-like power
// law, average degree ≈ 8 (paper: 9), more vertices than CFMini.
func YWSMini(size Size) (Dataset, error) {
	scale := size.scale() + 1
	edges, err := gen.RMAT(gen.DefaultRMAT(scale, 4, 0x135))
	if err != nil {
		return Dataset{}, err
	}
	return Dataset{Name: ywsMini, Edges: edges, N: 1 << scale}, nil
}

// WebFrontier generates the BFS-depth analog used by the Fig 5 traversal
// experiments: a small-world graph whose frontier expands gradually over
// tens of supersteps, like the multi-billion-vertex web graph's long-tail
// diameter. (The power-law analogs' diameter collapses to single digits
// at laptop scale, which would make every traversal fraction stop at the
// same superstep.)
func WebFrontier(size Size) (Dataset, error) {
	side := 1 << ((size.scale() + 1) / 2) // ≈ sqrt of the vertex count
	shortcuts := side * side / 128
	edges, err := gen.SmallWorld(side, side, shortcuts, 0x3E)
	if err != nil {
		return Dataset{}, err
	}
	return Dataset{Name: webFrontier, Edges: edges, N: uint32(side * side)}, nil
}

// Datasets returns both analogs.
func Datasets(size Size) ([]Dataset, error) {
	cf, err := CFMini(size)
	if err != nil {
		return nil, err
	}
	yws, err := YWSMini(size)
	if err != nil {
		return nil, err
	}
	return []Dataset{cf, yws}, nil
}

// Env is a prepared experiment environment: one dataset on one device
// with a built CSR graph and a memory budget scaled the way the paper
// scales its 1 GB budget against ~100 GB graphs.
type Env struct {
	Dev       *ssd.Device
	Graph     *csr.Graph
	DS        Dataset
	MemBudget int64
	PageSize  int
	// Cache is the page cache attached to Dev, nil when uncached.
	Cache *pagecache.Cache
}

// EnvOptions tunes Prepare.
type EnvOptions struct {
	// PageSize defaults to 4096 for benchmark scale (16384 matches the
	// paper but needs larger graphs to be interesting).
	PageSize int
	// Channels defaults to 8.
	Channels int
	// MemBudget defaults to DefaultBudget.
	MemBudget int64
	// Dir backs the device with real files when non-empty.
	Dir string
	// CacheMB > 0 attaches a page cache of that size (MiB); the device
	// is uncached otherwise.
	CacheMB int
	// Capacity caps the device byte footprint (ssd.Config.Capacity);
	// 0 leaves it unbounded.
	Capacity int64
}

// DefaultBudget is ds's default memory budget: ~2% of the graph's edge
// bytes (the paper's 1GB : 50-100GB ratio), floored at 64 KiB.
func DefaultBudget(ds Dataset) int64 {
	return max(int64(len(ds.Edges))*4*2/100, 64<<10)
}

// Prepare builds the CSR graph for ds on a fresh device. With wedges it
// builds a weighted graph (wedges must strip to ds.Edges).
func Prepare(ds Dataset, opts EnvOptions, wedges ...graphio.WeightedEdge) (*Env, error) {
	if opts.PageSize <= 0 {
		opts.PageSize = 4096
	}
	if opts.Channels <= 0 {
		opts.Channels = 8
	}
	if opts.MemBudget <= 0 {
		opts.MemBudget = DefaultBudget(ds)
	}
	dev, err := ssd.Open(ssd.Config{PageSize: opts.PageSize, Channels: opts.Channels, Dir: opts.Dir, Capacity: opts.Capacity})
	if err != nil {
		return nil, err
	}
	cache := pagecache.FromMB(opts.CacheMB, dev.PageSize())
	if cache != nil {
		dev.AttachCache(cache)
	}
	bopts := csr.BuildOptions{NumVertices: ds.N, IntervalBudget: core.IntervalBudget(opts.MemBudget)}
	var g *csr.Graph
	if wedges != nil {
		g, err = csr.BuildWeighted(dev, ds.Name, wedges, bopts)
	} else {
		g, err = csr.Build(dev, ds.Name, ds.Edges, bopts)
	}
	if err != nil {
		return nil, err
	}
	return &Env{Dev: dev, Graph: g, DS: ds, MemBudget: opts.MemBudget, PageSize: opts.PageSize, Cache: cache}, nil
}

// Run runs prog over env's graph and memory budget on the engine o
// selects.
func (env *Env) Run(prog vc.Program, o engine.Options) (*metrics.Report, []uint32, error) {
	res, err := engine.Run(env.Graph, env.MemBudget, prog, o)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s/%s on %s: %w", o.Engine, prog.Name(), env.DS.Name, err)
	}
	return res.Report, res.Values, nil
}
