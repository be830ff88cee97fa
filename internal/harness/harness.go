// Package harness prepares datasets and drives the engines for the
// experiment suite: it regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) on scaled-down R-MAT
// analogs of com-friendster and the Yahoo Webscope graph.
package harness

import (
	"context"
	"fmt"

	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/grafboost"
	"multilogvc/internal/graphchi"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// ReportSink, when non-nil, receives every engine run report the harness
// produces, in completion order. mlvc-bench wires it to a per-run JSON
// writer (-json DIR) so benchmark trajectories are machine-readable
// instead of being parsed back out of text tables.
var ReportSink func(*metrics.Report)

// DefaultCacheMB, when > 0, attaches a page cache of that size (MiB) to
// every environment Prepare builds, unless the EnvOptions override it.
// mlvc-bench wires it to -cache-mb so the whole experiment suite runs
// cached without threading a knob through every experiment.
var DefaultCacheMB int

func emitReport(r *metrics.Report) {
	if ReportSink != nil {
		ReportSink(r)
	}
}

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

// CFMini generates the com-friendster analog: dense power-law, average
// degree ≈ 24 after symmetrization (paper: 29).
func CFMini(size Size) (Dataset, error) {
	scale := size.scale()
	edges, err := gen.RMAT(gen.DefaultRMAT(scale, 12, 0xCF))
	if err != nil {
		return Dataset{}, err
	}
	return Dataset{Name: "cf-mini", Edges: edges, N: 1 << scale}, nil
}

// YWSMini generates the Yahoo-Webscope analog: sparser web-like power
// law, average degree ≈ 8 (paper: 9), more vertices than CFMini.
func YWSMini(size Size) (Dataset, error) {
	scale := size.scale() + 1
	edges, err := gen.RMAT(gen.DefaultRMAT(scale, 4, 0x135))
	if err != nil {
		return Dataset{}, err
	}
	return Dataset{Name: "yws-mini", Edges: edges, N: 1 << scale}, nil
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
	return Dataset{Name: "webfrontier-mini", Edges: edges, N: uint32(side * side)}, nil
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
	// MemBudget defaults to ~2% of the graph's edge bytes (the paper's
	// 1GB : 50-100GB ratio), floored at 64 KiB.
	MemBudget int64
	// Dir backs the device with real files when non-empty.
	Dir string
	// CacheMB attaches a page cache of that size (MiB): > 0 sets the
	// size, 0 falls back to DefaultCacheMB, < 0 forces uncached.
	CacheMB int
	// NoVerify disables page-checksum maintenance and verification on
	// the device — only for measuring integrity overhead.
	NoVerify bool
	// Capacity caps the device byte footprint (ssd.Config.Capacity);
	// 0 leaves it unbounded.
	Capacity int64
}

// attachCache resolves opts.CacheMB against DefaultCacheMB and attaches
// the cache to dev. Must run before any IO on the device.
func (o EnvOptions) attachCache(dev *ssd.Device) *pagecache.Cache {
	mb := o.CacheMB
	if mb == 0 {
		mb = DefaultCacheMB
	}
	if mb <= 0 {
		return nil
	}
	c := pagecache.FromMB(mb, dev.PageSize())
	if c != nil {
		dev.AttachCache(c)
	}
	return c
}

// Prepare builds the CSR graph for ds on a fresh device.
func Prepare(ds Dataset, opts EnvOptions) (*Env, error) {
	if opts.PageSize <= 0 {
		opts.PageSize = 4096
	}
	if opts.Channels <= 0 {
		opts.Channels = 8
	}
	if opts.MemBudget <= 0 {
		graphBytes := int64(len(ds.Edges)) * 4
		opts.MemBudget = graphBytes * 2 / 100
		if opts.MemBudget < 64<<10 {
			opts.MemBudget = 64 << 10
		}
	}
	dev, err := ssd.Open(ssd.Config{PageSize: opts.PageSize, Channels: opts.Channels, Dir: opts.Dir, NoVerify: opts.NoVerify, Capacity: opts.Capacity})
	if err != nil {
		return nil, err
	}
	cache := opts.attachCache(dev)
	// Interval budget = the sort share of the memory budget (§V-A1).
	ivBudget := opts.MemBudget * 75 / 100
	g, err := csr.Build(dev, ds.Name, ds.Edges, csr.BuildOptions{
		NumVertices:    ds.N,
		IntervalBudget: ivBudget,
	})
	if err != nil {
		return nil, err
	}
	return &Env{Dev: dev, Graph: g, DS: ds, MemBudget: opts.MemBudget, PageSize: opts.PageSize, Cache: cache}, nil
}

// RunOpts carries the per-run knobs shared by all engines.
type RunOpts struct {
	MaxSupersteps int
	StopAfter     func(step int, cumProcessed uint64) bool
	// MultiLogVC ablations.
	DisableEdgeLog  bool
	DisableCombiner bool
	DisableFusing   bool
	// GraFBoost adapted mode.
	Adapted bool
	// MemBudget overrides the environment's budget when > 0.
	MemBudget int64
	Workers   int
	// UtilThreshold overrides the edge-log utilization threshold when
	// > 0 (MultiLogVC engine only); > 1 logs every fetched adjacency.
	UtilThreshold float64
	// CheckpointEvery commits a checkpoint every K superstep boundaries
	// (MultiLogVC engine only); 0 disables checkpointing.
	CheckpointEvery int
	// Resume restarts from the latest valid checkpoint on the device
	// (MultiLogVC engine only).
	Resume bool
	// Interrupt requests a graceful stop: when it closes, the engine
	// checkpoints at the next superstep boundary and returns
	// core.ErrInterrupted (MultiLogVC engine only).
	Interrupt <-chan struct{}
	// Context bounds the run (deadline or cancellation); nil means
	// context.Background(). All three engines honor it.
	Context context.Context
	// SortBudget overrides the in-memory sort bound (MultiLogVC engine
	// only); interval logs above it spill through the external
	// sort-group. 0 derives it from the memory budget.
	SortBudget int64
}

func (o RunOpts) budget(env *Env) int64 {
	if o.MemBudget > 0 {
		return o.MemBudget
	}
	return env.MemBudget
}

// runner is any of the three engines.
type runner interface {
	RunCtx(context.Context, vc.Program) (*superstep.Result, error)
}

// finish runs prog on eng and unpacks the result for the experiment code.
func (env *Env) finish(engine string, prog vc.Program, o RunOpts, eng runner) (*metrics.Report, []uint32, error) {
	res, err := eng.RunCtx(o.Context, prog)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s/%s on %s: %w", engine, prog.Name(), env.DS.Name, err)
	}
	emitReport(res.Report)
	return res.Report, res.Values, nil
}

// RunMLVC runs prog on the MultiLogVC engine.
func RunMLVC(env *Env, prog vc.Program, o RunOpts) (*metrics.Report, []uint32, error) {
	eng := core.New(env.Graph, core.Config{
		MemoryBudget:    o.budget(env),
		SortBudget:      o.SortBudget,
		MaxSupersteps:   o.MaxSupersteps,
		StopAfter:       o.StopAfter,
		DisableEdgeLog:  o.DisableEdgeLog,
		DisableCombiner: o.DisableCombiner,
		DisableFusing:   o.DisableFusing,
		Workers:         o.Workers,
		UtilThreshold:   o.UtilThreshold,
		Cache:           env.Cache,
		CheckpointEvery: o.CheckpointEvery,
		Resume:          o.Resume,
		Interrupt:       o.Interrupt,
	})
	return env.finish("multilogvc", prog, o, eng)
}

// RunGraphChi runs prog on the GraphChi baseline.
func RunGraphChi(env *Env, prog vc.Program, o RunOpts) (*metrics.Report, []uint32, error) {
	eng := graphchi.New(env.Dev, env.DS.Name, env.DS.Edges, env.Graph.Intervals(), graphchi.Config{
		MaxSupersteps: o.MaxSupersteps,
		StopAfter:     o.StopAfter,
		Workers:       o.Workers,
		Cache:         env.Cache,
	})
	return env.finish("graphchi", prog, o, eng)
}

// RunGraFBoost runs prog on the GraFBoost baseline.
func RunGraFBoost(env *Env, prog vc.Program, o RunOpts) (*metrics.Report, []uint32, error) {
	eng := grafboost.New(env.Graph, grafboost.Config{
		MemoryBudget:  o.budget(env),
		MaxSupersteps: o.MaxSupersteps,
		StopAfter:     o.StopAfter,
		Adapted:       o.Adapted,
		Workers:       o.Workers,
		Cache:         env.Cache,
	})
	return env.finish("grafboost", prog, o, eng)
}

// PrepareWeighted builds a weighted CSR graph for ds (wedges must strip to
// ds.Edges).
func PrepareWeighted(ds Dataset, wedges []graphio.WeightedEdge, opts EnvOptions) (*Env, error) {
	if opts.PageSize <= 0 {
		opts.PageSize = 4096
	}
	if opts.Channels <= 0 {
		opts.Channels = 8
	}
	if opts.MemBudget <= 0 {
		graphBytes := int64(len(ds.Edges)) * 4
		opts.MemBudget = graphBytes * 2 / 100
		if opts.MemBudget < 64<<10 {
			opts.MemBudget = 64 << 10
		}
	}
	dev, err := ssd.Open(ssd.Config{PageSize: opts.PageSize, Channels: opts.Channels, Dir: opts.Dir, NoVerify: opts.NoVerify, Capacity: opts.Capacity})
	if err != nil {
		return nil, err
	}
	cache := opts.attachCache(dev)
	g, err := csr.BuildWeighted(dev, ds.Name, wedges, csr.BuildOptions{
		NumVertices:    ds.N,
		IntervalBudget: opts.MemBudget * 75 / 100,
	})
	if err != nil {
		return nil, err
	}
	return &Env{Dev: dev, Graph: g, DS: ds, MemBudget: opts.MemBudget, PageSize: opts.PageSize, Cache: cache}, nil
}

// RunGraphChiWeighted runs prog on the weighted shard baseline.
func RunGraphChiWeighted(env *Env, wedges []graphio.WeightedEdge, prog vc.Program, o RunOpts) (*metrics.Report, []uint32, error) {
	eng := graphchi.NewWeighted(env.Dev, env.DS.Name, wedges, env.Graph.Intervals(), graphchi.Config{
		MaxSupersteps: o.MaxSupersteps,
		StopAfter:     o.StopAfter,
		Workers:       o.Workers,
		Cache:         env.Cache,
	})
	return env.finish("graphchi-w", prog, o, eng)
}
