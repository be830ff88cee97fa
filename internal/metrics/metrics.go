// Package metrics defines the per-run and per-superstep measurements all
// engines report, and formatting helpers for the experiment harness.
//
// Times are split the way the paper's Fig 5c splits them: StorageTime is
// the simulated device time (virtual clock, see internal/ssd) and
// ComputeTime is measured host time outside device calls. TotalTime — the
// quantity behind every speedup figure — is their sum.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"multilogvc/internal/obsv"
)

// Counters are the additive measurements of an engine run. This struct is
// their one declaration: SuperstepStats embeds it as the superstep's row,
// Report as the run totals, and both JSON forms flatten it, so a new
// counter is one field here plus one line in Add.
type Counters struct {
	Active        uint64 `json:"active"` // vertices processed
	MsgsSent      uint64 `json:"msgs_sent"`
	MsgsDelivered uint64 `json:"msgs_delivered"`

	PagesRead    uint64        `json:"pages_read"`
	PagesWritten uint64        `json:"pages_written"`
	StorageTime  time.Duration `json:"storage_ns"`
	ComputeTime  time.Duration `json:"compute_ns"`

	// MultiLogVC-specific accounting (zero for other engines).
	ColIdxPagesRead   uint64 `json:"colidx_pages_read,omitempty"`  // graph adjacency pages fetched from CSR
	EdgeLogPagesRead  uint64 `json:"edgelog_pages_read,omitempty"` // adjacency served from the edge log instead
	EdgeLogPagesWrite uint64 `json:"edgelog_pages_write,omitempty"`
	InefficientPages  uint64 `json:"inefficient_pages,omitempty"`  // colidx pages with >0% and <10% utilization
	PredictedIneff    uint64 `json:"predicted_ineff,omitempty"`    // pages the edge-log optimizer predicted inefficient
	CorrectPredicted  uint64 `json:"correct_predicted,omitempty"`  // predictions that were inefficient again
	UtilPagesTouched  uint64 `json:"util_pages_touched,omitempty"` // distinct colidx pages whose utilization was measured

	// Page-cache accounting: deltas of the buffer pool's counters (see
	// internal/pagecache). All zero when the run is uncached, which keeps
	// omitempty exports byte-identical to pre-cache baselines.
	CacheHits       uint64 `json:"cache_hits,omitempty"`
	CacheMisses     uint64 `json:"cache_misses,omitempty"`
	CacheEvictions  uint64 `json:"cache_evictions,omitempty"`
	PrefetchInserts uint64 `json:"prefetch_inserts,omitempty"` // pages warmed by the prefetcher
	PrefetchHits    uint64 `json:"prefetch_hits,omitempty"`    // warmed pages that saw a demand hit
	PrefetchDropped uint64 `json:"prefetch_dropped,omitempty"` // warm attempts refused by backpressure

	// Fault-tolerance accounting: transient device faults absorbed by the
	// retry layer, the retries spent doing so, and the backoff charged to
	// the virtual clock (see ssd.RetryPolicy). All zero on fault-free runs,
	// keeping exports byte-identical to old baselines.
	TransientFaults  uint64        `json:"transient_faults,omitempty"`
	Retries          uint64        `json:"retries,omitempty"`
	RetryBackoff     time.Duration `json:"retry_backoff_ns,omitempty"`
	RetriesExhausted uint64        `json:"retries_exhausted,omitempty"`

	// Integrity accounting: pages whose checksum failed verification and
	// edge-log heal events (a corrupt redundant page whose generation was
	// invalidated and rebuilt from CSR).
	CorruptPages uint64 `json:"corrupt_pages,omitempty"`
	ElogHealed   uint64 `json:"elog_healed,omitempty"`

	// Checkpoint accounting: checkpoints committed at superstep boundaries
	// (0 or 1 per superstep), the device pages they wrote, and the storage
	// time those writes cost.
	Checkpoints     uint64        `json:"checkpoints,omitempty"`
	CheckpointPages uint64        `json:"checkpoint_pages,omitempty"`
	CheckpointTime  time.Duration `json:"checkpoint_ns,omitempty"`

	// Resource-governance accounting: interval logs that overflowed the
	// sort budget into the external sort-group, the record bytes they
	// spilled through the device, and disk-quota events (no-space faults
	// hit, reclamation sweeps run, bytes those sweeps freed). All zero on
	// ungoverned runs.
	Spills         uint64 `json:"spills,omitempty"`
	SpillBytes     uint64 `json:"spill_bytes,omitempty"`
	NoSpaceFaults  uint64 `json:"no_space_faults,omitempty"`
	Reclaims       uint64 `json:"reclaims,omitempty"`
	ReclaimedBytes uint64 `json:"reclaimed_bytes,omitempty"`
}

// Add accumulates o into c, field by field (TestCountersAddComplete fails
// by name for a field missing here).
func (c *Counters) Add(o Counters) {
	c.Active += o.Active
	c.MsgsSent += o.MsgsSent
	c.MsgsDelivered += o.MsgsDelivered
	c.PagesRead += o.PagesRead
	c.PagesWritten += o.PagesWritten
	c.StorageTime += o.StorageTime
	c.ComputeTime += o.ComputeTime
	c.ColIdxPagesRead += o.ColIdxPagesRead
	c.EdgeLogPagesRead += o.EdgeLogPagesRead
	c.EdgeLogPagesWrite += o.EdgeLogPagesWrite
	c.InefficientPages += o.InefficientPages
	c.PredictedIneff += o.PredictedIneff
	c.CorrectPredicted += o.CorrectPredicted
	c.UtilPagesTouched += o.UtilPagesTouched
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheEvictions += o.CacheEvictions
	c.PrefetchInserts += o.PrefetchInserts
	c.PrefetchHits += o.PrefetchHits
	c.PrefetchDropped += o.PrefetchDropped
	c.TransientFaults += o.TransientFaults
	c.Retries += o.Retries
	c.RetryBackoff += o.RetryBackoff
	c.RetriesExhausted += o.RetriesExhausted
	c.CorruptPages += o.CorruptPages
	c.ElogHealed += o.ElogHealed
	c.Checkpoints += o.Checkpoints
	c.CheckpointPages += o.CheckpointPages
	c.CheckpointTime += o.CheckpointTime
	c.Spills += o.Spills
	c.SpillBytes += o.SpillBytes
	c.NoSpaceFaults += o.NoSpaceFaults
	c.Reclaims += o.Reclaims
	c.ReclaimedBytes += o.ReclaimedBytes
}

// Total returns the modeled time: storage (virtual) + compute (host).
func (c Counters) Total() time.Duration { return c.StorageTime + c.ComputeTime }

// TotalPages returns pages read + written.
func (c Counters) TotalPages() uint64 { return c.PagesRead + c.PagesWritten }

// CacheHitRate returns the cache hit rate, or 0 when the run was uncached
// (no accesses recorded).
func (c Counters) CacheHitRate() float64 {
	if t := c.CacheHits + c.CacheMisses; t > 0 {
		return float64(c.CacheHits) / float64(t)
	}
	return 0
}

// PrefetchAccuracy returns the share of warmed pages that saw a demand
// hit, or 0 when nothing was prefetched.
func (c Counters) PrefetchAccuracy() float64 {
	if c.PrefetchInserts > 0 {
		return float64(c.PrefetchHits) / float64(c.PrefetchInserts)
	}
	return 0
}

// SuperstepStats measures one superstep of one engine run.
type SuperstepStats struct {
	Superstep int `json:"superstep"`

	Counters

	// MsgSkew is the per-interval message imbalance of the superstep:
	// max interval log volume over the mean across all intervals (1.0 =
	// perfectly balanced; 0 when no messages flowed). Engines that do not
	// partition by interval leave it 0.
	MsgSkew float64 `json:"msg_skew,omitempty"`

	// Stages attributes the superstep's device traffic to the pipeline
	// stage that issued it (see obsv.Stage). Rows are in canonical stage
	// order, all-zero stages omitted; their page counts sum exactly to
	// PagesRead/PagesWritten and their times to StorageTime. Empty for
	// runs predating stage tagging.
	Stages []StageIO `json:"stages,omitempty"`
	// IOSkew is the per-interval device-IO imbalance of the superstep:
	// the busiest interval's pages moved over the mean across intervals
	// that moved pages (1.0 = balanced; 0 when no interval-tagged IO
	// happened). This is the straggler signal parallel supersteps must
	// level out, complementing the message-volume view of MsgSkew.
	IOSkew float64 `json:"io_skew,omitempty"`
	// IntervalPages is the distribution of pages moved per interval.
	IntervalPages obsv.Hist `json:"interval_pages"`

	// Device-level distributions for the superstep (deltas of the
	// device's power-of-two histograms; see ssd.Stats).
	ReadBatchPages  obsv.Hist `json:"read_batch_pages"`
	WriteBatchPages obsv.Hist `json:"write_batch_pages"`
	ReadLatencyUS   obsv.Hist `json:"read_latency_us"`
	WriteLatencyUS  obsv.Hist `json:"write_latency_us"`
}

// Report is the outcome of one engine run. The JSON tags are its export
// schema; MarshalJSON adds the derived quantities beside them.
type Report struct {
	Engine string `json:"engine"`
	App    string `json:"app"`
	Graph  string `json:"graph"`

	Converged bool `json:"converged"`

	// Counters are the run totals, summed from Supersteps by Finish.
	Counters
	WallTime time.Duration `json:"wall_ns"` // measured end-to-end host time

	// Stages is the run-wide per-stage IO breakdown, accumulated from the
	// supersteps by Finish (canonical stage order; empty for runs without
	// stage tagging).
	Stages []StageIO `json:"stages,omitempty"`

	// Resumed records that the run restarted from a checkpoint instead of
	// superstep 0; ResumeStep is the first superstep executed after
	// restore. Supersteps before it come from the checkpoint.
	Resumed    bool `json:"resumed,omitempty"`
	ResumeStep int  `json:"resume_step,omitempty"`
	// Rollbacks counts how many times corrupt vital data sent this run
	// back to its newest checkpoint before it completed. Like Resumed it
	// is run-level state, not accumulated from supersteps.
	Rollbacks int `json:"rollbacks,omitempty"`

	Supersteps []SuperstepStats `json:"supersteps"`
}

// TotalTime is the modeled run time: storage (virtual) + compute (host).
func (r *Report) TotalTime() time.Duration { return r.Total() }

// Finish accumulates per-superstep stats into the run totals. Supersteps
// are normalized to ascending order first, so totals and per-step exports
// stay meaningful even if an engine appended them out of order.
func (r *Report) Finish() {
	if !sort.SliceIsSorted(r.Supersteps, func(i, j int) bool {
		return r.Supersteps[i].Superstep < r.Supersteps[j].Superstep
	}) {
		sort.SliceStable(r.Supersteps, func(i, j int) bool {
			return r.Supersteps[i].Superstep < r.Supersteps[j].Superstep
		})
	}
	r.Counters = Counters{}
	r.Stages = nil
	for i := range r.Supersteps {
		r.Add(r.Supersteps[i].Counters)
		r.Stages = MergeStages(r.Stages, r.Supersteps[i].Stages)
	}
}

// StorageFraction returns the share of total time spent on storage
// (the paper's Fig 5c series).
func (r *Report) StorageFraction() float64 {
	t := r.TotalTime()
	if t == 0 {
		return 0
	}
	return float64(r.StorageTime) / float64(t)
}

// Speedup returns base's total time divided by r's total time: how much
// faster r is than base.
func Speedup(base, r *Report) float64 {
	if r.TotalTime() == 0 {
		return 0
	}
	return float64(base.TotalTime()) / float64(r.TotalTime())
}

// PageRatio returns base's total page count divided by r's (Fig 5b).
func PageRatio(base, r *Report) float64 {
	if r.TotalPages() == 0 {
		return 0
	}
	return float64(base.TotalPages()) / float64(r.TotalPages())
}

// String summarizes the report in one line (two when a cache was active).
func (r *Report) String() string {
	s := fmt.Sprintf("%s/%s on %s: %d supersteps, total=%v (storage=%v compute=%v), wall=%v, pages r/w=%d/%d, converged=%v",
		r.Engine, r.App, r.Graph, len(r.Supersteps), r.TotalTime().Round(time.Microsecond),
		r.StorageTime.Round(time.Microsecond), r.ComputeTime.Round(time.Microsecond),
		r.WallTime.Round(time.Microsecond),
		r.PagesRead, r.PagesWritten, r.Converged)
	if r.CacheHits+r.CacheMisses > 0 {
		s += fmt.Sprintf("\n  cache: %.1f%% hit (%d hits, %d misses, %d evictions), prefetch: %d warmed, %.1f%% useful, %d dropped",
			100*r.CacheHitRate(), r.CacheHits, r.CacheMisses, r.CacheEvictions,
			r.PrefetchInserts, 100*r.PrefetchAccuracy(), r.PrefetchDropped)
	}
	if r.TransientFaults > 0 || r.Checkpoints > 0 || r.Resumed ||
		r.CorruptPages > 0 || r.ElogHealed > 0 || r.Rollbacks > 0 {
		s += fmt.Sprintf("\n  fault-tolerance: %d transient faults retried (%d retries, backoff=%v), %d checkpoints (%d pages, %v)",
			r.TransientFaults, r.Retries, r.RetryBackoff.Round(time.Microsecond),
			r.Checkpoints, r.CheckpointPages, r.CheckpointTime.Round(time.Microsecond))
		if r.Resumed {
			s += fmt.Sprintf(", resumed at superstep %d", r.ResumeStep)
		}
		if r.CorruptPages > 0 || r.ElogHealed > 0 || r.Rollbacks > 0 {
			s += fmt.Sprintf("\n  integrity: %d corrupt pages detected, %d edge-log heals, %d rollbacks",
				r.CorruptPages, r.ElogHealed, r.Rollbacks)
		}
	}
	if r.Spills > 0 || r.NoSpaceFaults > 0 || r.Reclaims > 0 {
		s += fmt.Sprintf("\n  governance: %d sort-budget spills (%d bytes), %d no-space faults, %d reclaims (%d bytes freed)",
			r.Spills, r.SpillBytes, r.NoSpaceFaults, r.Reclaims, r.ReclaimedBytes)
	}
	return s
}

// plainReport is Report without its methods, so the JSON codec sees the
// tagged fields instead of recursing into MarshalJSON.
type plainReport Report

// reportJSON is the machine-readable report schema: Report's own fields
// plus the derived quantities every figure of the paper is built from, so
// downstream tooling never recomputes them from text tables.
type reportJSON struct {
	*plainReport
	NumSteps    int           `json:"num_supersteps"`
	TotalPages  uint64        `json:"total_pages"`
	TotalTime   time.Duration `json:"total_ns"`
	Total       string        `json:"total"`
	Wall        string        `json:"wall"`
	StorageFrac float64       `json:"storage_fraction"`
	HitRate     float64       `json:"cache_hit_rate,omitempty"`
	PrefetchAcc float64       `json:"prefetch_accuracy,omitempty"`
}

// MarshalJSON exports the report with derived totals included; durations
// marshal as integer nanoseconds (the *_ns fields) with human-readable
// companions for the headline times.
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(reportJSON{
		plainReport: (*plainReport)(r),
		NumSteps:    len(r.Supersteps),
		TotalPages:  r.TotalPages(),
		TotalTime:   r.TotalTime(),
		Total:       r.TotalTime().Round(time.Microsecond).String(),
		Wall:        r.WallTime.Round(time.Microsecond).String(),
		StorageFrac: r.StorageFraction(),
		HitRate:     r.CacheHitRate(),
		PrefetchAcc: r.PrefetchAccuracy(),
	})
}

// UnmarshalJSON restores a report from its JSON export; derived fields
// are ignored (recomputed on demand).
func (r *Report) UnmarshalJSON(data []byte) error {
	var in plainReport
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*r = Report(in)
	return nil
}

// JSON renders the report as indented JSON, for -json exports.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders rows as an aligned text table for harness output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table. Rows may be ragged: cells beyond the header
// count get their own columns (previously this panicked in writeRow).
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with 2 decimals (table helper).
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// D formats a duration rounded to microseconds (table helper).
func D(d time.Duration) string { return d.Round(time.Microsecond).String() }

// CSV renders the table as comma-separated values (header + rows), for
// feeding the regenerated figure series into plotting tools. Cells
// containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRec := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRec(t.Headers)
	for _, row := range t.Rows {
		writeRec(row)
	}
	return b.String()
}
