package core

import "multilogvc/internal/pagecache"

// maxPrefetchVerts caps how many predicted-active vertices one prefetch
// plan expands into page sets, bounding plan time on dense intervals.
const maxPrefetchVerts = 1 << 16

// submitPrefetch opens a pin epoch and queues the warm jobs for interval
// nextIv on the prefetcher, returning the epoch for the consuming batch to
// release.
func (r *run) submitPrefetch(nextIv int) uint64 {
	pf := r.cfg.Prefetcher
	span := r.cfg.Trace.Begin("engine", "prefetch-submit")
	epoch := pf.BeginEpoch()
	jobs := r.planPrefetch(nextIv)
	pf.Submit(epoch, jobs...)
	span.Arg("iv", int64(nextIv))
	span.Arg("jobs", int64(len(jobs)))
	span.End()
	return epoch
}

// planPrefetch builds the warm jobs for interval nextIv, to run while the
// current batch computes. The prediction is the same signal the edge-log
// optimizer uses: a vertex is expected active next if it carried over
// live or its activity history predicts it (Predictor.PredictActive).
// Two page families are warmed, both pinned until the consuming batch
// releases the epoch (the interval's message log is a read-once stream and
// never enters the cache):
//
//  1. the value pages of the predicted vertices,
//  2. their CSR pages — row-pointer pages up front (pure arithmetic),
//     column-index pages via a second-stage Expand that reads the row
//     entries through the now-warm cache on the prefetch worker.
//
// Everything here runs on the engine goroutine except the Expand closure,
// which touches only thread-safe state (device files and the graph's
// immutable layout).
func (r *run) planPrefetch(nextIv int) []pagecache.Job {
	var jobs []pagecache.Job
	iv := r.g.Intervals()[nextIv]
	verts := make([]uint32, 0, 256)
	for v := iv.Lo; v < iv.Hi && len(verts) < maxPrefetchVerts; v++ {
		if r.carry.Test(int(v)) || (r.pred != nil && r.pred.PredictActive(v)) {
			verts = append(verts, v)
		}
	}
	if len(verts) == 0 {
		return jobs
	}

	if pages := r.values.PagesForVerts(verts); len(pages) > 0 {
		jobs = append(jobs, pagecache.Job{File: r.values.File(), Pages: pages, Pin: true})
	}

	// Adjacency: only vertices the edge log will not serve read CSR pages.
	csrVerts := verts
	if r.elog != nil {
		csrVerts = make([]uint32, 0, len(verts))
		for _, v := range verts {
			if !r.elog.Has(v) {
				csrVerts = append(csrVerts, v)
			}
		}
	}
	g := r.g
	if rowF, rowPages := g.OutRowPages(nextIv, csrVerts); rowF != nil && len(rowPages) > 0 {
		jobs = append(jobs, pagecache.Job{
			File: rowF, Pages: rowPages, Pin: true,
			Expand: func() ([]pagecache.Job, error) {
				colF, colPages, err := g.OutColPages(nextIv, csrVerts)
				if err != nil {
					return nil, err
				}
				if colF == nil || len(colPages) == 0 {
					return nil, nil
				}
				return []pagecache.Job{{File: colF, Pages: colPages, Pin: true}}, nil
			},
		})
	}
	return jobs
}
