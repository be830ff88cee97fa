package metrics

import (
	"sort"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

// StageIO is one pipeline stage's share of the device traffic in a
// superstep or run: the pages it moved, the virtual time they cost
// (service latency plus any retry backoff charged while the stage ran),
// and how the page cache treated its reads (zero on uncached runs). The
// Stage field is the stable lowercase name from obsv.Stage.String.
type StageIO struct {
	Stage        string        `json:"stage"`
	PagesRead    uint64        `json:"pages_read"`
	PagesWritten uint64        `json:"pages_written"`
	Time         time.Duration `json:"time_ns"`
	CacheHits    uint64        `json:"cache_hits,omitempty"`
	CacheMisses  uint64        `json:"cache_misses,omitempty"`
}

// stageRank orders stage names canonically (obsv.Stage order); names from
// a newer schema sort after the known ones, alphabetically.
var stageRank = func() map[string]int {
	m := make(map[string]int, obsv.NumStages)
	for i, name := range obsv.StageNames() {
		m[name] = i
	}
	return m
}()

func sortStages(rows []StageIO) {
	sort.SliceStable(rows, func(i, j int) bool {
		ri, iok := stageRank[rows[i].Stage]
		rj, jok := stageRank[rows[j].Stage]
		switch {
		case iok && jok:
			return ri < rj
		case iok != jok:
			return iok // known stages first
		default:
			return rows[i].Stage < rows[j].Stage
		}
	})
}

// StagesFromDevice converts a device stats delta into per-stage rows in
// canonical stage order, dropping all-zero stages so uncached, fault-free
// exports stay compact. The rows partition the delta exactly: their page
// counts sum to delta.PagesRead/PagesWritten and their times to
// delta.StorageTime().
func StagesFromDevice(delta ssd.Stats) []StageIO {
	var out []StageIO
	for i := 0; i < obsv.NumStages; i++ {
		st := delta.Stages[i]
		if st == (ssd.StageStats{}) {
			continue
		}
		out = append(out, StageIO{
			Stage:        obsv.Stage(i).String(),
			PagesRead:    st.PagesRead,
			PagesWritten: st.PagesWritten,
			Time:         st.Time,
			CacheHits:    st.CacheHits,
			CacheMisses:  st.CacheMisses,
		})
	}
	return out
}

// MergeStages folds src into dst by stage name and returns the merged
// rows in canonical stage order. Used to accumulate superstep rows into
// run totals and to fold checkpoint-window deltas into a superstep.
func MergeStages(dst, src []StageIO) []StageIO {
	for _, s := range src {
		found := false
		for i := range dst {
			if dst[i].Stage == s.Stage {
				dst[i].PagesRead += s.PagesRead
				dst[i].PagesWritten += s.PagesWritten
				dst[i].Time += s.Time
				dst[i].CacheHits += s.CacheHits
				dst[i].CacheMisses += s.CacheMisses
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, s)
		}
	}
	sortStages(dst)
	return dst
}

// StageByName returns the row for the named stage, or a zero row when the
// stage moved no pages.
func StageByName(rows []StageIO, name string) StageIO {
	for _, r := range rows {
		if r.Stage == name {
			return r
		}
	}
	return StageIO{Stage: name}
}

// AddDevice folds a run's IOScope stats delta into the superstep: page
// counts, storage time, the batch/latency histograms, fault and capacity
// counters, the per-stage rows, and the cache hits and misses the run's
// reads met (the sum of the stage rows, so a run sharing the cache counts
// only its own). It accumulates, so a second window inside the same
// superstep (a boundary checkpoint) adds on top of the first.
func (s *SuperstepStats) AddDevice(d ssd.Stats) {
	s.Stages = MergeStages(s.Stages, StagesFromDevice(d))
	for _, st := range d.Stages {
		s.CacheHits += st.CacheHits
		s.CacheMisses += st.CacheMisses
	}
	s.PagesRead += d.PagesRead
	s.PagesWritten += d.PagesWritten
	s.StorageTime += d.StorageTime()
	s.ReadBatchPages.Add(d.ReadBatchPages)
	s.WriteBatchPages.Add(d.WriteBatchPages)
	s.ReadLatencyUS.Add(d.ReadLatencyUS)
	s.WriteLatencyUS.Add(d.WriteLatencyUS)
	s.TransientFaults += d.TransientFaults
	s.Retries += d.Retries
	s.RetryBackoff += d.RetryBackoff
	s.RetriesExhausted += d.RetriesExhausted
	s.CorruptPages += d.CorruptPages
	s.NoSpaceFaults += d.NoSpaceFaults
	s.Reclaims += d.Reclaims
	s.ReclaimedBytes += d.ReclaimedBytes
}

// AddCache folds a page-cache stats delta into the superstep: its
// evictions, which are the cache's, not any one run's.
func (s *SuperstepStats) AddCache(c pagecache.Stats) {
	s.CacheEvictions += c.Evictions
}
