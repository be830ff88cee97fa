package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"multilogvc/internal/engine"
	"multilogvc/internal/obsv"
)

// Continuous-benchmarking snapshots: every record of a Registry that ran
// every experiment table and the gate's own runs, distilled into a
// schema-versioned JSON file (BENCH_<size>.json). CI regenerates a fresh
// snapshot on every push and diffs it against the committed baseline:
// counter increases (page counts, spills, retries) fail the build, and
// every other deterministic field must match exactly. Host times are
// written but never compared — the virtual storage clock makes page and
// device-time accounting reproducible in a way host timing never is.

// SnapshotSchemaVersion identifies the snapshot layout. Bump it when a
// field changes meaning; Compare refuses to diff across versions.
const SnapshotSchemaVersion = 2

// StageSnap is one stage's row in a snapshot entry, mirrored from
// metrics.StageIO with a plain int64 time for stable JSON.
type StageSnap struct {
	Stage        string `json:"stage"`
	PagesRead    uint64 `json:"pages_read"`
	PagesWritten uint64 `json:"pages_written"`
	TimeNS       int64  `json:"time_ns"`
}

// StepSnap is one superstep's row in a snapshot entry: the counters Fig 2
// and Fig 9 print.
type StepSnap struct {
	Active           uint64 `json:"active"`
	MsgsSent         uint64 `json:"msgs_sent"`
	InefficientPages uint64 `json:"inefficient_pages,omitempty"`
	CorrectPredicted uint64 `json:"correct_predicted,omitempty"`
}

// SnapEntry is one benchmark run's distilled result. Entries are keyed by
// (Engine, App, Graph, CacheMB, Variant). Every field but the host times
// (ComputeNS, WallNS) and CacheHitRate is gated, and is bit-identical
// between runs of the same binary, cached runs included: fixed-size log
// records make page counts a pure function of the message flow, and the
// demand-only cache's hits are a pure function of the reads.
type SnapEntry struct {
	Engine  string `json:"engine"`
	App     string `json:"app"`
	Graph   string `json:"graph"`
	CacheMB int    `json:"cache_mb"`
	// Variant names the run's other options set away from their defaults
	// (see RunKey.variant); empty for a plain run.
	Variant      string      `json:"variant,omitempty"`
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

	// What the tables print beyond the counters above: spill and
	// checkpoint volumes, Fig 3's touched pages, IOBreakdown's pages per
	// storage structure, and Fig 2's and Fig 9's superstep rows.
	SpillBytes       uint64            `json:"spill_bytes,omitempty"`
	Checkpoints      uint64            `json:"checkpoints,omitempty"`
	CheckpointPages  uint64            `json:"checkpoint_pages,omitempty"`
	CheckpointNS     int64             `json:"checkpoint_ns,omitempty"`
	UtilPagesTouched uint64            `json:"util_pages_touched,omitempty"`
	Structures       map[string]uint64 `json:"structures,omitempty"`
	Steps            []StepSnap        `json:"steps,omitempty"`
}

// Key identifies the entry across snapshots.
func (e SnapEntry) Key() string {
	k := fmt.Sprintf("%s/%s/%s/cache%d", e.Engine, e.App, e.Graph, e.CacheMB)
	if e.Variant != "" {
		k += "/" + e.Variant
	}
	return k
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

func entryFromRecord(rec *Record) SnapEntry {
	r := rec.Report
	e := SnapEntry{
		Engine:           r.Engine,
		App:              r.App,
		Graph:            r.Graph,
		CacheMB:          rec.Key.CacheMB,
		Variant:          rec.Key.variant(),
		Supersteps:       len(r.Supersteps),
		PagesRead:        r.PagesRead,
		PagesWritten:     r.PagesWritten,
		StorageNS:        int64(r.StorageTime),
		ComputeNS:        int64(r.ComputeTime),
		WallNS:           int64(r.WallTime),
		CacheHitRate:     r.CacheHitRate(),
		Spills:           r.Spills,
		Retries:          r.Retries,
		SpillBytes:       r.SpillBytes,
		Checkpoints:      r.Checkpoints,
		CheckpointPages:  r.CheckpointPages,
		CheckpointNS:     int64(r.CheckpointTime),
		UtilPagesTouched: r.UtilPagesTouched,
		Structures:       rec.Structures,
	}
	for _, st := range r.Stages {
		e.Stages = append(e.Stages, StageSnap{
			Stage:        st.Stage,
			PagesRead:    st.PagesRead,
			PagesWritten: st.PagesWritten,
			TimeNS:       int64(st.Time),
		})
	}
	for _, ss := range r.Supersteps {
		e.Steps = append(e.Steps, StepSnap{
			Active:           ss.Active,
			MsgsSent:         ss.MsgsSent,
			InefficientPages: ss.InefficientPages,
			CorrectPredicted: ss.CorrectPredicted,
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

// gateRuns are the snapshot's runs beyond the experiments': the paper's
// two workhorse apps on all three engines, a sparser-graph run, one cached
// MultiLogVC run, and the serving daemon's batch-16 shape (uncached
// lane-batched MultiBFS, so pages per query of the batching fast path are
// gated like any other engine counter).
var gateRuns = []RunKey{
	{Dataset: cfMini, App: "pagerank", Steps: MaxSupersteps},
	{Dataset: cfMini, App: "bfs", Steps: MaxSupersteps},
	{Dataset: ywsMini, App: "cdlp", Steps: MaxSupersteps},
	{Dataset: cfMini, App: "pagerank", Engine: engine.GraphChi, Steps: MaxSupersteps},
	{Dataset: cfMini, App: "pagerank", Engine: engine.GraFBoost, Steps: MaxSupersteps},
	{Dataset: cfMini, App: "pagerank", CacheMB: 8, Steps: MaxSupersteps},
	{Dataset: cfMini, App: servingApp, Steps: MaxSupersteps},
}

// TakeSnapshot executes the runs of every experiment and of the gate at
// the given size and distills them into a Snapshot.
func TakeSnapshot(size Size) (*Snapshot, error) { return NewRegistry(size).Snapshot() }

// Snapshot executes the runs of every experiment (uncached) and of the
// gate that r has not executed yet, plus the durable-ingest shape, and
// distills every record of r into a Snapshot.
func (r *Registry) Snapshot() (*Snapshot, error) {
	for _, e := range Experiments {
		if _, err := r.Table(e, 0); err != nil {
			return nil, err
		}
	}
	return r.snapshot()
}

// snapshot is Snapshot without the experiments: the gate's runs, the
// ingest shape, and whatever r already holds.
func (r *Registry) snapshot() (*Snapshot, error) {
	for _, k := range gateRuns {
		if _, err := r.Get(k); err != nil {
			return nil, err
		}
	}
	cf := r.datasets(cfMini)
	// The durable-ingest shape: the fixed mutation stream through the
	// sync-flushed WAL plus one crash-atomic merge. Uncached and
	// fixed-seed, so page counts and WAL bytes gate deterministically.
	ingest, wall, err := runIngestBench(cf[0], r.devDir("ingest"))
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{SchemaVersion: SnapshotSchemaVersion, Size: sizeName(r.size)}
	for _, rec := range r.order {
		snap.Entries = append(snap.Entries, entryFromRecord(rec))
	}
	ie := SnapEntry{
		Engine:       "multilogvc",
		App:          ingestApp,
		Graph:        cfMini,
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

// DiffResult is the outcome of a baseline comparison. Regressions fail
// the CI gate; warnings are informational (stale-baseline improvements,
// entries new to the baseline).
type DiffResult struct {
	Regressions []string
	Warnings    []string
}

// OK reports whether the gate passes.
func (d *DiffResult) OK() bool { return len(d.Regressions) == 0 }

// Compare diffs a fresh snapshot against the committed baseline. On every
// entry any page-count, spill, or retry increase — total or per-stage — is
// a regression, and decreases warn that the baseline is stale; every other
// gated field (supersteps, virtual device time total and per stage, the
// table counters) is a pure function of (graph, program, config) and must
// match exactly. Host times are never compared.
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

func pctDrift(base, fresh int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(fresh-base) / float64(base)
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
	exact := func(name string, base, fresh any) {
		if !reflect.DeepEqual(base, fresh) {
			regress("%s changed %v -> %v", name, base, fresh)
		}
	}
	counter("pages_read", b.PagesRead, f.PagesRead)
	counter("pages_written", b.PagesWritten, f.PagesWritten)
	counter("spills", b.Spills, f.Spills)
	counter("retries", b.Retries, f.Retries)
	exact("supersteps", b.Supersteps, f.Supersteps)
	exact("storage_ns", b.StorageNS, f.StorageNS)
	exact("spill_bytes", b.SpillBytes, f.SpillBytes)
	exact("checkpoints", b.Checkpoints, f.Checkpoints)
	exact("checkpoint_pages", b.CheckpointPages, f.CheckpointPages)
	exact("checkpoint_ns", b.CheckpointNS, f.CheckpointNS)
	exact("util_pages_touched", b.UtilPagesTouched, f.UtilPagesTouched)
	exact("structures", b.Structures, f.Structures)
	exact("steps", b.Steps, f.Steps)

	// Per-stage page counts: an increase in any stage is a regression even
	// when the totals balance out — attribution moving between stages is a
	// behavior change the baseline should record deliberately. A stage on
	// one side only compares against zero.
	stage := func(bs, fs StageSnap) {
		counter("stage["+fs.Stage+"].pages_read", bs.PagesRead, fs.PagesRead)
		counter("stage["+fs.Stage+"].pages_written", bs.PagesWritten, fs.PagesWritten)
		exact("stage["+fs.Stage+"].time_ns", bs.TimeNS, fs.TimeNS)
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
}
