// Package multilogvc is an out-of-core vertex-centric graph processing
// framework for flash storage, reproducing "MultiLogVC: Efficient
// Out-of-Core Graph Processing Framework for Flash Storage" (IPDPS 2021).
//
// Graphs larger than memory are stored on a (simulated) SSD in
// interval-partitioned CSR form; per-superstep updates flow through one
// log per destination vertex interval, so each interval's messages sort
// in memory without an external sort while every message is preserved —
// the full generality of vertex-centric programming. An edge-log
// optimizer re-logs the adjacency of predicted-active vertices that live
// on poorly utilized pages, cutting read amplification further.
//
// The package also ships the paper's two baselines — a GraphChi-style
// shard engine and a GraFBoost-style single-log engine — behind the same
// Program interface, plus the six evaluated applications and synthetic
// graph generators, so the paper's entire evaluation is reproducible (see
// EXPERIMENTS.md).
//
// # Quick start
//
//	sys, _ := multilogvc.NewSystem(multilogvc.SystemOptions{})
//	edges, _ := multilogvc.RMAT(14, 12, 42)
//	g, _ := sys.BuildGraph("social", edges, multilogvc.GraphOptions{})
//	res, _ := g.Run(multilogvc.NewPageRank(), multilogvc.RunOptions{})
//	fmt.Println(res.Report)
package multilogvc

import (
	"context"
	"fmt"
	"os"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/ckpt"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/grafboost"
	"multilogvc/internal/graphchi"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// Core vertex-centric types, re-exported for writing custom programs.
type (
	// Program is a vertex-centric graph algorithm; see the vc package
	// contract for the superstep semantics.
	Program = vc.Program
	// Context is the per-vertex view during Process.
	Context = vc.Context
	// Msg is one delivered update.
	Msg = vc.Msg
	// InitSet selects initially active vertices.
	InitSet = vc.InitSet
	// Combiner marks programs whose updates merge associatively.
	Combiner = vc.Combiner
	// AuxUser marks programs with per-in-edge persistent state.
	AuxUser = vc.AuxUser
	// Edge is one directed edge.
	Edge = graphio.Edge
	// WeightedEdge is one directed edge with a uint32 weight.
	WeightedEdge = graphio.WeightedEdge
	// Report is an engine run report.
	Report = metrics.Report
	// SuperstepStats is one superstep's measurements.
	SuperstepStats = metrics.SuperstepStats
	// RunResult is a finished run: the report and final vertex values.
	RunResult = superstep.Result
	// Trace collects structured spans from an engine run; export it with
	// WriteChromeTrace for Perfetto / chrome://tracing.
	Trace = obsv.Trace
)

// NewTrace creates an empty span trace to pass in RunOptions.Trace.
func NewTrace() *Trace { return obsv.NewTrace() }

// Sentinel errors re-exported for fault classification: callers match
// them with errors.Is to tell a permanently failed device from an
// exhausted transient-retry budget or an unusable checkpoint.
var (
	// ErrDeviceFault is a permanent injected device fault (ssd.ErrInjected).
	ErrDeviceFault = ssd.ErrInjected
	// ErrTransientFault is a transient device fault; the retry layer
	// absorbs these unless the budget runs out.
	ErrTransientFault = ssd.ErrTransient
	// ErrRetriesExhausted marks a transient fault that outlived the retry
	// budget (the error chain also matches ErrTransientFault).
	ErrRetriesExhausted = ssd.ErrRetriesExhausted
	// ErrCorruptCheckpoint is returned by a Resume run whose checkpoint
	// slots are all torn or CRC-invalid.
	ErrCorruptCheckpoint = ckpt.ErrCorrupt
	// ErrCorruptPage marks a page whose content failed its CRC32C on a
	// read path — silent data corruption, distinct from transient faults
	// because retrying cannot help.
	ErrCorruptPage = ssd.ErrCorruptPage
	// ErrCorruptData is returned when corrupt vital data could not be
	// recovered: checkpointing was off, or rollback attempts ran out.
	ErrCorruptData = core.ErrCorruptData
	// ErrInterrupted is returned when RunOptions.Interrupt fired; a
	// checkpoint was committed first, so rerunning with Resume continues
	// the computation.
	ErrInterrupted = core.ErrInterrupted
	// ErrNoSpace is returned when a write exceeded the device's disk
	// quota (SystemOptions.DiskCapacity) and space reclamation could not
	// free enough to retry — the run ends classified, never silently
	// truncated.
	ErrNoSpace = ssd.ErrNoSpace
	// ErrDeadline is returned when RunOptions.Context expired on a
	// deadline; on the MultiLogVC engine a boundary checkpoint was
	// committed first, so rerunning with Resume continues the computation.
	ErrDeadline = core.ErrDeadline
	// ErrBadSend is returned when a Program's Send addresses a vertex the
	// graph does not have; the message names the sender and the destination.
	ErrBadSend = superstep.ErrBadSend
)

// ServeDebug starts an HTTP listener exposing live engine gauges at
// /debug/vars (expvar) and profiles at /debug/pprof/. It returns the
// bound address and a shutdown func.
func ServeDebug(addr string) (string, func() error, error) { return obsv.Serve(addr) }

// SystemOptions configures the storage device under a System.
type SystemOptions struct {
	// PageSize in bytes; defaults to 16KB, the paper's SSD page size.
	PageSize int
	// Channels is the simulated flash channel count; defaults to 8.
	Channels int
	// PageReadLatency / PageWriteLatency drive the virtual storage
	// clock; defaults 50µs / 70µs per page.
	PageReadLatency  time.Duration
	PageWriteLatency time.Duration
	// Dir backs the device with real files when non-empty; otherwise
	// pages live in RAM (still fully accounted).
	Dir string
	// CacheMB attaches a buffer-pool page cache of the given size (in
	// MiB) between the engines and the device: demand-only, with
	// sweep-aware eviction (the superstep loop tells the cache where each
	// superstep starts) and write-through coherence. 0 (the default) runs
	// uncached; page reads always hit the device, which is what the
	// paper's accounting model measures.
	CacheMB int
	// MaxRetries bounds how many times a page operation hit by a
	// transient device fault is retried with exponential backoff (charged
	// to the virtual storage clock). 0 keeps the default of 3; negative
	// disables retries.
	MaxRetries int
	// DiskCapacity caps the device's total byte footprint. Writes that
	// would exceed it trigger the device's space reclaimers (consumed
	// message-log intervals, stale checkpoint slots) and are retried once;
	// if still over quota they fail with ErrNoSpace. 0 (the default)
	// leaves the device unbounded.
	DiskCapacity int64
}

// System owns a storage device and the graphs on it.
type System struct {
	dev   *ssd.Device
	cache *pagecache.Cache // nil when CacheMB == 0
}

// NewSystem opens a storage device.
func NewSystem(opts SystemOptions) (*System, error) {
	dev, err := ssd.Open(ssd.Config{
		PageSize:         opts.PageSize,
		Channels:         opts.Channels,
		PageReadLatency:  opts.PageReadLatency,
		PageWriteLatency: opts.PageWriteLatency,
		Dir:              opts.Dir,
		Capacity:         opts.DiskCapacity,
		Retry:            ssd.RetryPolicy{MaxRetries: opts.MaxRetries},
	})
	if err != nil {
		return nil, err
	}
	s := &System{dev: dev}
	if c := pagecache.FromMB(opts.CacheMB, dev.PageSize()); c != nil {
		dev.AttachCache(c)
		s.cache = c
	}
	return s, nil
}

// Device exposes the underlying simulated device (stats, page size).
func (s *System) Device() *ssd.Device { return s.dev }

// Cache exposes the attached page cache, or nil when the System is
// uncached (SystemOptions.CacheMB == 0).
func (s *System) Cache() *pagecache.Cache { return s.cache }

// GraphOptions configures BuildGraph.
type GraphOptions struct {
	// NumVertices overrides the inferred count (max id + 1).
	NumVertices uint32
	// MemoryBudget bounds per-run memory (sort + log buffers); vertex
	// intervals are sized from it per §V-A1. Defaults to 64 MiB.
	MemoryBudget int64
}

// Graph is a graph stored on a System's device, runnable on any engine.
type Graph struct {
	sys       *System
	g         *csr.Graph
	edges     []Edge         // retained for the shard baseline
	wedges    []WeightedEdge // weighted graphs only
	memBudget int64
}

// BuildGraph writes edges to the device as an interval-partitioned CSR
// graph. For undirected graphs pass the symmetric closure (see
// MakeUndirected).
func (s *System) BuildGraph(name string, edges []Edge, opts GraphOptions) (*Graph, error) {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 64 << 20
	}
	g, err := csr.Build(s.dev, name, edges, csr.BuildOptions{
		NumVertices:    opts.NumVertices,
		IntervalBudget: opts.MemoryBudget * 75 / 100,
	})
	if err != nil {
		return nil, err
	}
	kept := make([]Edge, len(edges))
	copy(kept, edges)
	return &Graph{sys: s, g: g, edges: kept, memBudget: opts.MemoryBudget}, nil
}

// BuildWeightedGraph is BuildGraph for weighted edges: per-edge weights
// are stored in the CSR val vector (Fig 1a of the paper) and reach
// programs through Context.OutWeights.
func (s *System) BuildWeightedGraph(name string, wedges []WeightedEdge, opts GraphOptions) (*Graph, error) {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 64 << 20
	}
	g, err := csr.BuildWeighted(s.dev, name, wedges, csr.BuildOptions{
		NumVertices:    opts.NumVertices,
		IntervalBudget: opts.MemoryBudget * 75 / 100,
	})
	if err != nil {
		return nil, err
	}
	kept := make([]WeightedEdge, len(wedges))
	copy(kept, wedges)
	return &Graph{sys: s, g: g, wedges: kept, memBudget: opts.MemoryBudget}, nil
}

// OpenGraph reopens a graph previously built on this System's device —
// typically a disk-backed device (SystemOptions.Dir) whose files survive
// from an earlier process. The edge list for the shard baseline is
// reconstructed from the stored CSR.
func (s *System) OpenGraph(name string, memoryBudget int64) (*Graph, error) {
	if memoryBudget <= 0 {
		memoryBudget = 64 << 20
	}
	g, err := csr.Open(s.dev, name)
	if err != nil {
		return nil, err
	}
	edges, err := g.CurrentEdges()
	if err != nil {
		return nil, err
	}
	out := &Graph{sys: s, g: g, memBudget: memoryBudget}
	if g.HasWeights() {
		// Recover weights alongside destinations.
		var wedges []WeightedEdge
		for iv := range g.Intervals() {
			interval := g.Intervals()[iv]
			verts := make([]uint32, 0, interval.Len())
			for v := interval.Lo; v < interval.Hi; v++ {
				verts = append(verts, v)
			}
			if _, err := g.LoadOutEdgesFull(iv, verts, func(v uint32, nbrs, weights []uint32, _, _ int32) {
				for i, nb := range nbrs {
					w := uint32(1)
					if weights != nil {
						w = weights[i]
					}
					wedges = append(wedges, WeightedEdge{Src: v, Dst: nb, Weight: w})
				}
			}); err != nil {
				return nil, err
			}
		}
		out.wedges = wedges
	} else {
		out.edges = edges
	}
	return out, nil
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() uint32 { return g.g.NumVertices() }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() uint64 { return g.g.NumEdges() }

// Intervals returns the number of vertex intervals the graph was
// partitioned into.
func (g *Graph) Intervals() int { return len(g.g.Intervals()) }

// AddEdge buffers a structural edge addition (§V-E); it is visible to
// subsequent runs immediately and merged into the CSR files lazily. On
// weighted graphs the new edge gets weight 1; use AddWeightedEdge.
func (g *Graph) AddEdge(src, dst uint32) error {
	return g.AddWeightedEdge(src, dst, 1)
}

// AddWeightedEdge is AddEdge with an explicit weight.
func (g *Graph) AddWeightedEdge(src, dst, weight uint32) error {
	if g.g.HasWeights() {
		g.wedges = append(g.wedges, WeightedEdge{Src: src, Dst: dst, Weight: weight})
	} else {
		g.edges = append(g.edges, Edge{Src: src, Dst: dst})
	}
	return g.g.AddEdgeWeighted(src, dst, weight, 0)
}

// RemoveEdge buffers a structural edge removal (§V-E).
func (g *Graph) RemoveEdge(src, dst uint32) error {
	if g.g.HasWeights() {
		for i, e := range g.wedges {
			if e.Src == src && e.Dst == dst {
				g.wedges = append(g.wedges[:i], g.wedges[i+1:]...)
				break
			}
		}
	} else {
		for i, e := range g.edges {
			if e.Src == src && e.Dst == dst {
				g.edges = append(g.edges[:i], g.edges[i+1:]...)
				break
			}
		}
	}
	return g.g.RemoveEdge(src, dst, 0)
}

// Engine selects which execution engine runs a program.
type Engine int

const (
	// EngineMultiLog is the MultiLogVC engine (the paper's system).
	EngineMultiLog Engine = iota
	// EngineGraphChi is the shard-based baseline.
	EngineGraphChi
	// EngineGraFBoost is the single-log baseline (requires a Combiner).
	EngineGraFBoost
	// EngineGraFBoostAdapted is the single log forced to keep all
	// messages, enabling non-combinable programs (§VIII).
	EngineGraFBoostAdapted
)

func (e Engine) String() string {
	switch e {
	case EngineGraphChi:
		return "graphchi"
	case EngineGraFBoost:
		return "grafboost"
	case EngineGraFBoostAdapted:
		return "grafboost-adapted"
	default:
		return "multilogvc"
	}
}

// ParseEngine maps a name to an Engine.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "multilogvc", "mlvc", "":
		return EngineMultiLog, nil
	case "graphchi":
		return EngineGraphChi, nil
	case "grafboost":
		return EngineGraFBoost, nil
	case "grafboost-adapted":
		return EngineGraFBoostAdapted, nil
	}
	return 0, fmt.Errorf("multilogvc: unknown engine %q", name)
}

// RunOptions tunes one program run.
type RunOptions struct {
	// Engine defaults to EngineMultiLog.
	Engine Engine
	// MaxSupersteps defaults to 15, the paper's evaluation cap.
	MaxSupersteps int
	// Workers is the vertex-processing parallelism (defaults to
	// GOMAXPROCS).
	Workers int
	// StopAfter ends the run early; it receives the superstep index and
	// the cumulative number of vertex activations.
	StopAfter func(superstep int, cumProcessed uint64) bool
	// DisableEdgeLog / DisableCombiner / DisableFusing switch off
	// MultiLogVC optimizations (ablations).
	DisableEdgeLog  bool
	DisableCombiner bool
	DisableFusing   bool
	// Async selects MultiLogVC's asynchronous computation model (§V-F):
	// forward updates are delivered within the sending superstep.
	// Fixpoint algorithms (BFS, SSSP, WCC, PageRank) converge in fewer
	// supersteps; phase-structured algorithms (MIS) need synchronous
	// execution. Only the MultiLogVC engine honors it.
	Async bool
	// Trace, when non-nil, records per-superstep and per-stage spans of
	// the run (MultiLogVC engine only). Disabled tracing costs one pointer
	// test per stage.
	Trace *Trace
	// CheckpointEvery commits a crash-recovery checkpoint every K
	// superstep boundaries (MultiLogVC engine only); 0 disables it.
	// Checkpoint IO is charged to the device and reported per superstep.
	CheckpointEvery int
	// Resume restarts from the latest valid checkpoint on the device
	// (MultiLogVC engine only). With none present the run starts fresh;
	// if every checkpoint slot is torn or corrupt the run fails with
	// ErrCorruptCheckpoint.
	Resume bool
	// Interrupt, when non-nil, requests graceful shutdown (MultiLogVC
	// engine only): at the next superstep boundary after it closes, the
	// run commits a checkpoint — even with CheckpointEvery 0 — and
	// returns ErrInterrupted.
	Interrupt <-chan struct{}
	// Context, when non-nil, bounds the run on every engine alike:
	// cancellation or a deadline stops it at the next superstep boundary,
	// and the device's transient-fault retry backoff observes it too. The
	// MultiLogVC engine commits a checkpoint first and classifies deadline
	// expiry as ErrDeadline (plain cancellation as ErrInterrupted); the
	// baseline engines, which have no checkpoints, stop with the context's
	// error wrapped.
	Context context.Context
	// SortBudget overrides the in-memory sort bound in bytes (MultiLogVC
	// engine only); interval logs above it spill through the external
	// sort-group. 0 derives it from the graph's MemoryBudget as usual.
	SortBudget int64
}

// Run executes prog on the selected engine.
func (g *Graph) Run(prog Program, opts RunOptions) (*RunResult, error) {
	ctx := opts.Context // nil means context.Background()
	switch opts.Engine {
	case EngineGraphChi:
		cfg := graphchi.Config{
			MaxSupersteps: opts.MaxSupersteps,
			Workers:       opts.Workers,
			StopAfter:     opts.StopAfter,
			Cache:         g.sys.cache,
		}
		if g.g.HasWeights() {
			return graphchi.NewWeighted(g.sys.dev, g.g.Name(), g.wedges, g.g.Intervals(), cfg).RunCtx(ctx, prog)
		}
		return graphchi.New(g.sys.dev, g.g.Name(), g.edges, g.g.Intervals(), cfg).RunCtx(ctx, prog)
	case EngineGraFBoost, EngineGraFBoostAdapted:
		return grafboost.New(g.g, grafboost.Config{
			MemoryBudget:  g.memBudget,
			MaxSupersteps: opts.MaxSupersteps,
			Workers:       opts.Workers,
			Adapted:       opts.Engine == EngineGraFBoostAdapted,
			StopAfter:     opts.StopAfter,
			Cache:         g.sys.cache,
		}).RunCtx(ctx, prog)
	default:
		return core.New(g.g, core.Config{
			MemoryBudget:    g.memBudget,
			SortBudget:      opts.SortBudget,
			MaxSupersteps:   opts.MaxSupersteps,
			Workers:         opts.Workers,
			StopAfter:       opts.StopAfter,
			DisableEdgeLog:  opts.DisableEdgeLog,
			DisableCombiner: opts.DisableCombiner,
			DisableFusing:   opts.DisableFusing,
			Async:           opts.Async,
			Trace:           opts.Trace,
			Cache:           g.sys.cache,
			CheckpointEvery: opts.CheckpointEvery,
			Resume:          opts.Resume,
			Interrupt:       opts.Interrupt,
		}).RunCtx(ctx, prog)
	}
}

// The six applications the paper evaluates (§VII).

// NewBFS returns single-source BFS from the given source (combinable).
func NewBFS(source uint32) Program { return &apps.BFS{Source: source} }

// BFSUnvisited is the depth of vertices BFS never reached.
const BFSUnvisited = apps.Inf

// NewPageRank returns delta-based PageRank with default damping 0.85 and
// threshold 0.01 (combinable). Use PageRankValue to decode vertex values.
func NewPageRank() Program { return &apps.PageRank{} }

// PageRankValue converts a PageRank vertex value to a float rank.
func PageRankValue(v uint32) float64 { return apps.Rank(v) }

// NewCommunityDetection returns label-propagation community detection
// (non-combinable; per-in-edge state).
func NewCommunityDetection() Program { return &apps.CDLP{} }

// NewColoring returns speculative greedy graph coloring (non-combinable).
func NewColoring() Program { return &apps.Coloring{} }

// NewMIS returns Luby-style maximal independent set with a deterministic
// seed (non-combinable). Values: 1 = in set, 2 = out.
func NewMIS(seed uint64) Program { return &apps.MIS{Seed: seed} }

// MIS vertex states.
const (
	MISIn  = apps.MISIn
	MISOut = apps.MISOut
)

// NewRandomWalk returns DrunkardMob-style random walks: one walker per
// sampleEvery-th vertex, up to walkLength steps (non-combinable). Values
// are visit counts.
func NewRandomWalk(sampleEvery, walkLength uint32, seed uint64) Program {
	return &apps.RandomWalk{SampleEvery: sampleEvery, WalkLength: walkLength, Seed: seed}
}

// NewSSSP returns single-source shortest paths over edge weights
// (combinable). On unweighted graphs it degenerates to BFS.
func NewSSSP(source uint32) Program { return &apps.SSSP{Source: source} }

// NewWCC returns weakly-connected-component labeling by HashMin
// (combinable). Final values are component labels.
func NewWCC() Program { return &apps.WCC{} }

// NewKCore returns iterative k-core peeling (combinable). Use KCoreMember
// to decode final values.
func NewKCore(k uint32) Program { return &apps.KCore{K: k} }

// KCoreMember reports whether a final NewKCore vertex value denotes core
// membership.
func KCoreMember(value uint32) bool { return apps.InCore(value) }

// Graph generators and IO.

// RMAT generates a power-law graph with 2^scale vertices and
// edgeFactor×2^scale directed edges (Graph500 parameters), symmetrized.
func RMAT(scale, edgeFactor int, seed int64) ([]Edge, error) {
	return gen.RMAT(gen.DefaultRMAT(scale, edgeFactor, seed))
}

// Uniform generates an Erdős–Rényi-style graph.
func Uniform(n uint32, m int, seed int64) ([]Edge, error) {
	return gen.Uniform(n, m, seed, true)
}

// Grid generates a rows×cols 2-D grid graph.
func Grid(rows, cols int) ([]Edge, error) { return gen.Grid(rows, cols) }

// PlantedPartition generates a graph with planted communities; see the
// communities example.
func PlantedPartition(groups, size int, degIn, degOut float64, seed int64) ([]Edge, error) {
	return gen.PlantedPartition(groups, size, degIn, degOut, seed)
}

// MakeUndirected returns the symmetric closure of edges with self-loops
// and duplicates removed.
func MakeUndirected(edges []Edge) []Edge { return graphio.MakeUndirected(edges) }

// RandomWeights attaches deterministic pseudo-random weights in
// [1, maxWeight] to edges; the weight of (u,v) equals the weight of
// (v,u), so symmetric closures stay consistent.
func RandomWeights(edges []Edge, maxWeight uint32, seed uint64) []WeightedEdge {
	if maxWeight == 0 {
		maxWeight = 16
	}
	return graphio.AttachWeights(edges, func(s, d uint32) uint32 {
		if s > d {
			s, d = d, s
		}
		return uint32(vc.Hash64(seed, uint64(s), uint64(d))%uint64(maxWeight)) + 1
	})
}

// ReadEdgeListFile loads a SNAP-style text edge list or the binary format
// written by WriteEdgeListFile (detected by extension ".bin").
func ReadEdgeListFile(path string) ([]Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if len(path) > 4 && path[len(path)-4:] == ".bin" {
		return graphio.ReadBinary(f)
	}
	return graphio.ReadText(f)
}

// WriteEdgeListFile writes edges as text, or binary when path ends in
// ".bin".
func WriteEdgeListFile(path string, edges []Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 4 && path[len(path)-4:] == ".bin" {
		return graphio.WriteBinary(f, edges)
	}
	return graphio.WriteText(f, edges)
}

// ProgramOptions parameterizes NewProgramByName.
type ProgramOptions struct {
	// Source is the start vertex for bfs and sssp.
	Source uint32
	// Seed drives randomized programs (mis, randomwalk).
	Seed uint64
	// SampleEvery launches one walker per k vertices (randomwalk);
	// defaults to 1000.
	SampleEvery uint32
	// WalkLength caps walk steps (randomwalk); defaults to 10.
	WalkLength uint32
	// K is the minimum core degree (kcore); defaults to 3.
	K uint32
}

// ProgramNames lists the names NewProgramByName accepts.
func ProgramNames() []string {
	return []string{"bfs", "pagerank", "cdlp", "coloring", "mis", "randomwalk", "sssp", "wcc", "kcore"}
}

// NewProgramByName constructs one of the bundled programs by its CLI name.
func NewProgramByName(name string, opts ProgramOptions) (Program, error) {
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 1000
	}
	if opts.WalkLength == 0 {
		opts.WalkLength = 10
	}
	if opts.K == 0 {
		opts.K = 3
	}
	switch name {
	case "bfs":
		return NewBFS(opts.Source), nil
	case "pagerank":
		return NewPageRank(), nil
	case "cdlp":
		return NewCommunityDetection(), nil
	case "coloring":
		return NewColoring(), nil
	case "mis":
		return NewMIS(opts.Seed), nil
	case "randomwalk":
		return NewRandomWalk(opts.SampleEvery, opts.WalkLength, opts.Seed), nil
	case "sssp":
		return NewSSSP(opts.Source), nil
	case "wcc":
		return NewWCC(), nil
	case "kcore":
		return NewKCore(opts.K), nil
	}
	return nil, fmt.Errorf("multilogvc: unknown program %q (have %v)", name, ProgramNames())
}
