package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/vc"
)

// Continuous-benchmarking snapshots: a fixed suite of engine runs distilled
// into a schema-versioned JSON file (BENCH_<size>.json). CI regenerates a
// fresh snapshot on every push and diffs it against the committed baseline:
// counter increases (page counts, supersteps, spills) fail the build,
// wall-clock drift only warns — the virtual storage clock makes page and
// device-time accounting reproducible in a way host timing never is.

// SnapshotSchemaVersion identifies the snapshot layout. Bump it when a
// field changes meaning; Compare refuses to diff across versions.
const SnapshotSchemaVersion = 1

// StageSnap is one stage's row in a snapshot entry, mirrored from
// metrics.StageIO with a plain int64 time for stable JSON.
type StageSnap struct {
	Stage        string `json:"stage"`
	PagesRead    uint64 `json:"pages_read"`
	PagesWritten uint64 `json:"pages_written"`
	TimeNS       int64  `json:"time_ns"`
}

// SnapEntry is one benchmark run's distilled result. Entries are keyed by
// (Engine, App, Graph, CacheMB). Every counter but the host times is
// bit-identical between runs of the same binary, cached runs included:
// fixed-size log records make page counts a pure function of the message
// flow, and the demand-only cache's hits are a pure function of the reads.
type SnapEntry struct {
	Engine       string      `json:"engine"`
	App          string      `json:"app"`
	Graph        string      `json:"graph"`
	CacheMB      int         `json:"cache_mb"`
	Supersteps   int         `json:"supersteps"`
	PagesRead    uint64      `json:"pages_read"`
	PagesWritten uint64      `json:"pages_written"`
	StorageNS    int64       `json:"storage_ns"`
	ComputeNS    int64       `json:"compute_ns"`
	WallNS       int64       `json:"wall_ns"`
	CacheHitRate float64     `json:"cache_hit_rate"`
	Spills       uint64      `json:"spills"`
	Retries      uint64      `json:"retries"`
	Stages       []StageSnap `json:"stages,omitempty"`
}

// Key identifies the entry across snapshots.
func (e SnapEntry) Key() string {
	return fmt.Sprintf("%s/%s/%s/cache%d", e.Engine, e.App, e.Graph, e.CacheMB)
}

// Snapshot is the whole benchmark state of one commit at one size.
type Snapshot struct {
	SchemaVersion int         `json:"schema_version"`
	Size          string      `json:"size"`
	Entries       []SnapEntry `json:"entries"`
}

// WriteFile writes the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSnapshot reads a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("harness: parse snapshot %s: %w", path, err)
	}
	return &s, nil
}

func entryFromReport(r *metrics.Report, cacheMB int) SnapEntry {
	e := SnapEntry{
		Engine:       r.Engine,
		App:          r.App,
		Graph:        r.Graph,
		CacheMB:      cacheMB,
		Supersteps:   len(r.Supersteps),
		PagesRead:    r.PagesRead,
		PagesWritten: r.PagesWritten,
		StorageNS:    int64(r.StorageTime),
		ComputeNS:    int64(r.ComputeTime),
		WallNS:       int64(r.WallTime),
		CacheHitRate: r.CacheHitRate(),
		Spills:       r.Spills,
		Retries:      r.Retries,
	}
	for _, st := range r.Stages {
		e.Stages = append(e.Stages, StageSnap{
			Stage:        st.Stage,
			PagesRead:    st.PagesRead,
			PagesWritten: st.PagesWritten,
			TimeNS:       int64(st.Time),
		})
	}
	return e
}

func sizeName(size Size) string {
	switch size {
	case Tiny:
		return "tiny"
	case Medium:
		return "medium"
	default:
		return "small"
	}
}

// TakeSnapshot runs the benchmark suite at the given size and distills it
// into a Snapshot. The suite covers all three engines on the paper's two
// workhorse apps, a sparser-graph run, one cached MultiLogVC run, the
// serving batch shape and the durable-ingest shape.
func TakeSnapshot(size Size) (*Snapshot, error) { return takeSnapshot(size, "") }

// takeSnapshot is TakeSnapshot with each run's device backed by files in a
// subdirectory of dir of its own; an empty dir keeps every device in RAM.
func takeSnapshot(size Size, dir string) (*Snapshot, error) {
	devDir := func(run int) string {
		if dir == "" {
			return ""
		}
		return filepath.Join(dir, strconv.Itoa(run))
	}
	cf, err := CFMini(size)
	if err != nil {
		return nil, err
	}
	yws, err := YWSMini(size)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{SchemaVersion: SnapshotSchemaVersion, Size: sizeName(size)}
	opts := RunOpts{MaxSupersteps: MaxSupersteps}

	type runSpec struct {
		ds      Dataset
		prog    func() vc.Program
		run     func(*Env, vc.Program, RunOpts) (*metrics.Report, []uint32, error)
		cacheMB int
	}
	specs := []runSpec{
		{cf, func() vc.Program { return &apps.PageRank{} }, RunMLVC, 0},
		{cf, func() vc.Program { return &apps.BFS{Source: 0} }, RunMLVC, 0},
		{yws, func() vc.Program { return &apps.CDLP{} }, RunMLVC, 0},
		{cf, func() vc.Program { return &apps.PageRank{} }, RunGraphChi, 0},
		{cf, func() vc.Program { return &apps.PageRank{} }, RunGraFBoost, 0},
		{cf, func() vc.Program { return &apps.PageRank{} }, RunMLVC, 8},
		// The serving daemon's batch-16 shape: uncached lane-batched
		// MultiBFS, so pages-per-query of the batching fast path is gated
		// deterministically like any other engine counter.
		{cf, func() vc.Program { return servingProg(ServingSources(cf.N, servingQueries)) }, RunMLVC, 0},
	}
	for i, sp := range specs {
		env, err := Prepare(sp.ds, EnvOptions{CacheMB: cacheOpt(sp.cacheMB), Dir: devDir(i)})
		if err != nil {
			return nil, err
		}
		rep, _, err := sp.run(env, sp.prog(), opts)
		if err != nil {
			return nil, err
		}
		snap.Entries = append(snap.Entries, entryFromReport(rep, sp.cacheMB))
	}
	// The durable-ingest shape: the fixed mutation stream through the
	// sync-flushed WAL plus one crash-atomic merge. Uncached and
	// fixed-seed, so page counts and WAL bytes gate deterministically.
	ingest, wall, err := runIngestBench(cf, devDir(len(specs)))
	if err != nil {
		return nil, err
	}
	ie := SnapEntry{
		Engine:       "multilogvc",
		App:          ingestApp,
		Graph:        cf.Name,
		PagesRead:    ingest.PagesRead,
		PagesWritten: ingest.PagesWritten,
		StorageNS:    int64(ingest.StorageTime()),
		WallNS:       int64(wall),
		Retries:      ingest.Retries,
	}
	for i, st := range ingest.Stages {
		if st.PagesRead == 0 && st.PagesWritten == 0 {
			continue
		}
		ie.Stages = append(ie.Stages, StageSnap{
			Stage:        obsv.Stage(i).String(),
			PagesRead:    st.PagesRead,
			PagesWritten: st.PagesWritten,
			TimeNS:       int64(st.Time),
		})
	}
	snap.Entries = append(snap.Entries, ie)
	sort.Slice(snap.Entries, func(i, j int) bool {
		return snap.Entries[i].Key() < snap.Entries[j].Key()
	})
	return snap, nil
}

// cacheOpt maps a snapshot cache size to EnvOptions.CacheMB semantics,
// where 0 falls through to the process default and < 0 forces uncached.
func cacheOpt(mb int) int {
	if mb == 0 {
		return -1
	}
	return mb
}

// wallTolPct is the wall-time drift, in percent either way, that warns.
const wallTolPct = 50

// DiffResult is the outcome of a baseline comparison. Regressions fail
// the CI gate; warnings are informational (wall drift, stale-baseline
// improvements).
type DiffResult struct {
	Regressions []string
	Warnings    []string
}

// OK reports whether the gate passes.
func (d *DiffResult) OK() bool { return len(d.Regressions) == 0 }

func pctDrift(base, fresh int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(fresh-base) / float64(base)
}

// Compare diffs a fresh snapshot against the committed baseline. On every
// entry any page-count, superstep, spill, or retry increase — total or
// per-stage — is a regression, and decreases warn that the baseline is
// stale; virtual device time, total and per-stage, is a pure function of
// (graph, program, config) and must match exactly. Wall time always warns
// only.
func Compare(base, fresh *Snapshot) *DiffResult {
	d := &DiffResult{}
	if base.SchemaVersion != fresh.SchemaVersion {
		d.Regressions = append(d.Regressions, fmt.Sprintf(
			"schema version mismatch: baseline v%d vs fresh v%d — regenerate the baseline",
			base.SchemaVersion, fresh.SchemaVersion))
		return d
	}
	if base.Size != fresh.Size {
		d.Regressions = append(d.Regressions, fmt.Sprintf(
			"size mismatch: baseline %q vs fresh %q", base.Size, fresh.Size))
		return d
	}
	freshByKey := make(map[string]SnapEntry, len(fresh.Entries))
	for _, e := range fresh.Entries {
		freshByKey[e.Key()] = e
	}
	baseKeys := make(map[string]bool, len(base.Entries))
	for _, b := range base.Entries {
		baseKeys[b.Key()] = true
		f, ok := freshByKey[b.Key()]
		if !ok {
			d.Regressions = append(d.Regressions, fmt.Sprintf("%s: missing from fresh snapshot", b.Key()))
			continue
		}
		compareEntry(d, b, f)
	}
	for _, f := range fresh.Entries {
		if !baseKeys[f.Key()] {
			d.Warnings = append(d.Warnings, fmt.Sprintf(
				"%s: new entry not in baseline — commit a regenerated baseline to track it", f.Key()))
		}
	}
	return d
}

func compareEntry(d *DiffResult, b, f SnapEntry) {
	key := b.Key()
	regress := func(format string, args ...any) {
		d.Regressions = append(d.Regressions, key+": "+fmt.Sprintf(format, args...))
	}
	warn := func(format string, args ...any) {
		d.Warnings = append(d.Warnings, key+": "+fmt.Sprintf(format, args...))
	}
	counter := func(name string, base, fresh uint64) {
		switch {
		case fresh == base:
		case fresh > base:
			regress("%s increased %d -> %d (+%.1f%%)", name, base, fresh, pctDrift(int64(base), int64(fresh)))
		default:
			warn("%s decreased %d -> %d — baseline is stale, consider regenerating", name, base, fresh)
		}
	}
	counter("pages_read", b.PagesRead, f.PagesRead)
	counter("pages_written", b.PagesWritten, f.PagesWritten)
	counter("spills", b.Spills, f.Spills)
	counter("retries", b.Retries, f.Retries)
	if f.Supersteps != b.Supersteps {
		regress("superstep count changed %d -> %d", b.Supersteps, f.Supersteps)
	}

	// Per-stage page counts: an increase in any stage is a regression even
	// when the totals balance out — attribution moving between stages is a
	// behavior change the baseline should record deliberately. A stage on
	// one side only compares against zero.
	stage := func(bs, fs StageSnap) {
		counter("stage["+fs.Stage+"].pages_read", bs.PagesRead, fs.PagesRead)
		counter("stage["+fs.Stage+"].pages_written", bs.PagesWritten, fs.PagesWritten)
		if fs.TimeNS != bs.TimeNS {
			regress("stage[%s].time_ns changed %d -> %d", fs.Stage, bs.TimeNS, fs.TimeNS)
		}
	}
	baseStages := make(map[string]StageSnap, len(b.Stages))
	for _, bs := range b.Stages {
		baseStages[bs.Stage] = bs
	}
	for _, fs := range f.Stages {
		stage(baseStages[fs.Stage], fs)
		delete(baseStages, fs.Stage)
	}
	for _, bs := range b.Stages {
		if _, missing := baseStages[bs.Stage]; missing {
			stage(bs, StageSnap{Stage: bs.Stage})
		}
	}

	if f.StorageNS != b.StorageNS {
		regress("storage_ns changed %d -> %d", b.StorageNS, f.StorageNS)
	}
	if drift := pctDrift(b.WallNS, f.WallNS); drift > wallTolPct || drift < -wallTolPct {
		warn("wall time drifted %+.1f%% (%s -> %s)", drift,
			time.Duration(b.WallNS), time.Duration(f.WallNS))
	}
}
