package harness

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"multilogvc/internal/apps"
	"multilogvc/internal/engine"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/vc"
)

// RunKey identifies one engine run: the dataset and the environment it is
// prepared in, then the program, the engine and the engine's options. Every
// table and the benchmark snapshot ask a Registry for keys, so two tables
// that need the same run read the same record.
type RunKey struct {
	Dataset  string // cf-mini, yws-mini or webfrontier-mini
	PageSize int    // 0: Prepare's default
	Budget   int64  // memory budget; 0: DefaultBudget
	Weighted bool   // the dataset's weighted variant (see weighted)
	CacheMB  int    // > 0: a page cache of that size (MiB)

	App             string // a program name; see program
	Engine          engine.Kind
	Steps           int     // MaxSupersteps of the run
	Stop            float64 // > 0: stop once this fraction of the vertices was processed (Fig 5)
	NoEdgeLog       bool
	NoFusing        bool
	CheckpointEvery int
	SortBudget      int64
}

// runKey is app on ds on MultiLogVC, uncached, at the paper's superstep cap.
func runKey(ds Dataset, app string) RunKey {
	return RunKey{Dataset: ds.Name, App: app, Steps: MaxSupersteps}
}

// variant names every field of k the snapshot key's engine/app/graph/cache
// prefix leaves out and k sets away from its default; "" for a plain run.
func (k RunKey) variant() string {
	var v []string
	for _, f := range []struct {
		set  bool
		name string
	}{
		{k.PageSize != 0, fmt.Sprintf("page=%d", k.PageSize)},
		{k.Budget != 0, fmt.Sprintf("budget=%d", k.Budget)},
		{k.Weighted, "weighted"},
		{k.Steps != MaxSupersteps, fmt.Sprintf("steps=%d", k.Steps)},
		{k.Stop != 0, fmt.Sprintf("stop=%g", k.Stop)},
		{k.NoEdgeLog, "no-edgelog"},
		{k.NoFusing, "no-fusing"},
		{k.CheckpointEvery != 0, fmt.Sprintf("ckpt=%d", k.CheckpointEvery)},
		{k.SortBudget != 0, fmt.Sprintf("sort=%d", k.SortBudget)},
	} {
		if f.set {
			v = append(v, f.name)
		}
	}
	return strings.Join(v, ",")
}

// Record is one executed run: its report, the values it computed, and the
// pages each storage structure (see structure) moved on the run's device,
// the CSR build's traffic included.
type Record struct {
	Key        RunKey
	Report     *metrics.Report
	Values     []uint32
	Structures map[string]uint64
}

// Registry executes each distinct RunKey once and keeps its Record. Each
// run gets a freshly prepared device of its own, so a record, cache hits
// and per-structure pages included, is a function of its key alone.
type Registry struct {
	size    Size
	dir     string // non-empty: each run's device is backed by files under it
	cacheMB int    // > 0 while Table renders: the cache of every key asked for
	dss     map[string]Dataset
	recs    map[RunKey]*Record
	order   []*Record
}

// NewRegistry returns an empty registry over the datasets of size.
func NewRegistry(size Size) *Registry {
	return &Registry{size: size, dss: map[string]Dataset{}, recs: map[RunKey]*Record{}}
}

// Records returns every executed run, in execution order.
func (r *Registry) Records() []*Record { return r.order }

// Table renders e from the registry's records, executing the runs it needs
// that no earlier table or snapshot did. cacheMB > 0 sets the cache of
// every key e asks for.
func (r *Registry) Table(e Experiment, cacheMB int) (*metrics.Table, error) {
	r.cacheMB = cacheMB
	defer func() { r.cacheMB = 0 }()
	return e.Table(r)
}

// generators maps each dataset name to its generator.
var generators = map[string]func(Size) (Dataset, error){
	cfMini: CFMini, ywsMini: YWSMini, webFrontier: WebFrontier,
}

// paper names the two paper analogs, in table order.
var paper = []string{cfMini, ywsMini}

// datasets returns the named datasets, each generated once per registry.
// Every name and generator parameter is a constant of this package, so a
// failure is unreachable.
func (r *Registry) datasets(names ...string) []Dataset {
	out := make([]Dataset, len(names))
	for i, name := range names {
		ds, ok := r.dss[name]
		if !ok {
			var err error
			if ds, err = generators[name](r.size); err != nil {
				panic(err)
			}
			r.dss[name] = ds
		}
		out[i] = ds
	}
	return out
}

// Get returns key's record, executing the run the first time it is asked
// for.
func (r *Registry) Get(key RunKey) (*Record, error) {
	if r.cacheMB > 0 {
		key.CacheMB = r.cacheMB
	}
	if rec, ok := r.recs[key]; ok {
		return rec, nil
	}
	dss := r.datasets(key.Dataset)
	rec, err := r.execute(key, dss[0])
	if err != nil {
		return nil, err
	}
	r.recs[key] = rec
	r.order = append(r.order, rec)
	return rec, nil
}

// devDir is the directory of one device's files under r.dir; "" keeps the
// device in RAM.
func (r *Registry) devDir(name string) string {
	if r.dir == "" {
		return ""
	}
	return filepath.Join(r.dir, name)
}

// versus reads key on MultiLogVC, then on baseline.
func (r *Registry) versus(key RunKey, baseline engine.Kind) (ml, base *metrics.Report, err error) {
	key.Engine = engine.MultiLog
	m, err := r.Get(key)
	if err != nil {
		return nil, nil, err
	}
	key.Engine = baseline
	b, err := r.Get(key)
	if err != nil {
		return nil, nil, err
	}
	return m.Report, b.Report, nil
}

// execute runs key on a freshly prepared device of its own.
func (r *Registry) execute(key RunKey, ds Dataset) (*Record, error) {
	opts := EnvOptions{PageSize: key.PageSize, MemBudget: key.Budget, CacheMB: key.CacheMB,
		Dir: r.devDir(strconv.Itoa(len(r.order)))}
	var wedges []graphio.WeightedEdge
	if key.Weighted {
		wedges = weighted(ds)
	}
	env, err := Prepare(ds, opts, wedges...)
	if err != nil {
		return nil, err
	}
	defer env.Dev.Close()
	o := engine.Options{Engine: key.Engine, MaxSupersteps: key.Steps,
		DisableEdgeLog: key.NoEdgeLog, DisableFusing: key.NoFusing,
		CheckpointEvery: key.CheckpointEvery, SortBudget: key.SortBudget}
	if key.Stop > 0 {
		target := uint64(key.Stop * float64(ds.N))
		o.StopAfter = func(_ int, cum uint64) bool { return cum >= target }
	}
	rep, vals, err := env.Run(program(key.App, ds.N), o)
	if err != nil {
		return nil, err
	}
	rec := &Record{Key: key, Report: rep, Values: vals, Structures: map[string]uint64{}}
	for name, st := range env.Dev.StatsByFile() {
		rec.Structures[structure(name)] += st.PagesRead + st.PagesWritten
	}
	return rec, nil
}

// appSet names the six evaluated programs, in table order.
var appSet = []string{"bfs", "pagerank", "cdlp", "coloring", "mis", "randomwalk"}

// AppSet returns the six evaluated programs tuned for a dataset of n
// vertices (see program).
func AppSet(n uint32) []vc.Program {
	out := make([]vc.Program, len(appSet))
	for i, app := range appSet {
		out[i] = program(app, n)
	}
	return out
}

// program builds the named program for a dataset of n vertices. Random-walk
// sampling is scaled so walker density matches the paper's every-1000th-
// vertex sampling on billion-vertex graphs.
func program(app string, n uint32) vc.Program {
	switch app {
	case "bfs":
		return &apps.BFS{Source: 0}
	case "pagerank":
		return &apps.PageRank{}
	case "cdlp":
		return &apps.CDLP{}
	case "coloring":
		return &apps.Coloring{}
	case "mis":
		return &apps.MIS{Seed: 42}
	case "randomwalk":
		return &apps.RandomWalk{SampleEvery: max(n/64, 1), WalkLength: 10, Seed: 42}
	case "sssp":
		return &apps.SSSP{Source: 0}
	case "wcc":
		return &apps.WCC{}
	case "kcore":
		return &apps.KCore{K: 4}
	case servingApp:
		return servingProg(ServingSources(n, servingQueries))
	}
	panic("harness: unknown program " + app)
}

// weighted attaches SSSP's symmetric pseudo-random weights to ds.
func weighted(ds Dataset) []graphio.WeightedEdge {
	return graphio.AttachWeights(ds.Edges, func(s, d uint32) uint32 {
		if s > d {
			s, d = d, s
		}
		return uint32(vc.Hash64(uint64(s), uint64(d))%16) + 1
	})
}

// structure names the storage structure a device file belongs to.
func structure(file string) string {
	switch {
	case strings.Contains(file, ".mlog."):
		return "mlog"
	case strings.Contains(file, ".elog"):
		return "elog"
	case strings.Contains(file, ".values"):
		return "values"
	case strings.Contains(file, ".aux."):
		return "aux"
	case strings.Contains(file, ".rowptr.") || strings.Contains(file, ".colidx.") || strings.Contains(file, ".val."):
		return "graph"
	default:
		return "other"
	}
}
