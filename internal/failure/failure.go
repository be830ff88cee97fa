// Package failure is the one table of failure families. A row names the
// sentinel errors it matches and what such a failure means on every
// surface: mlvcd's wire code and HTTP status, mlvc's exit code, and
// whether it is device-fault evidence. Of walks the rows in order, so an
// error wrapping several sentinels takes the first row that matches;
// anything no row matches is Internal.
package failure

import (
	"context"
	"errors"
	"net/http"

	"multilogvc/internal/ckpt"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/ssd"
	"multilogvc/internal/wal"
)

// Family is one row of the table.
type Family struct {
	Code   string // mlvcd's error code
	Status int    // mlvcd's HTTP status
	Exit   int    // mlvc's exit code; 1 where the CLI has no family
	// Fault marks device-fault evidence: the serving breaker records it
	// as a fault, and a lane batch that dies of it re-runs its members
	// solo (a smaller run can fit under the quota, miss the transient
	// storm, or not re-read the corrupt scratch page). A deadline is not:
	// a member's deadline is as dead solo as batched.
	Fault bool
	errs  []error // matched with errors.Is; none for an admission code
}

// The rows. Order decides multi-sentinel errors: the run-ending causes
// (deadline, shutdown) first, then the request families, then the device
// families, with retries-exhausted ahead of an injected crash and a
// corrupt checkpoint ahead of corrupt data.
var (
	Deadline           = &Family{"deadline", http.StatusGatewayTimeout, 9, false, []error{core.ErrDeadline, context.DeadlineExceeded}}
	ShuttingDown       = &Family{"shutting_down", http.StatusServiceUnavailable, 7, false, []error{core.ErrInterrupted, context.Canceled}}
	IngestBackpressure = &Family{"ingest_backpressure", http.StatusServiceUnavailable, 1, false, []error{csr.ErrIngestBackpressure}}
	BadRequest         = &Family{"bad_request", http.StatusBadRequest, 1, false, []error{csr.ErrVertexOutOfRange}}
	NotReady           = &Family{"not_ready", http.StatusServiceUnavailable, 1, false, []error{csr.ErrNotDurable}}
	Gap                = &Family{"gap", http.StatusGone, 1, false, []error{wal.ErrSeqGap}}
	NoSpace            = &Family{"no_space", http.StatusInsufficientStorage, 8, true, []error{ssd.ErrNoSpace}}
	DeviceFault        = &Family{"device_fault", http.StatusInternalServerError, 3, true, []error{ssd.ErrRetriesExhausted}}
	CorruptCheckpoint  = &Family{"corrupt", http.StatusInternalServerError, 5, false, []error{ckpt.ErrCorrupt}}
	Corrupt            = &Family{"corrupt", http.StatusInternalServerError, 6, true, []error{core.ErrCorruptData, ssd.ErrCorruptPage}}
	Crash              = &Family{"crash", http.StatusInternalServerError, 4, false, []error{ssd.ErrInjected}}

	// Codes with no sentinel: mlvcd's admission refusals, an unknown
	// endpoint and a wrong method (bad_request under HTTP's own 405).
	Overloaded       = &Family{"overloaded", http.StatusServiceUnavailable, 1, false, nil}
	BreakerOpen      = &Family{"breaker_open", http.StatusServiceUnavailable, 1, false, nil}
	ReadOnly         = &Family{"read_only", http.StatusForbidden, 1, false, nil}
	NotFound         = &Family{"not_found", http.StatusNotFound, 1, false, nil}
	MethodNotAllowed = &Family{"bad_request", http.StatusMethodNotAllowed, 1, false, nil}

	// Internal is the fall-through: anything else, contained panics included.
	Internal = &Family{"internal", http.StatusInternalServerError, 1, false, nil}
)

// Table is every row in lookup order, Internal last.
var Table = []*Family{
	Deadline, ShuttingDown, IngestBackpressure, BadRequest, NotReady, Gap,
	NoSpace, DeviceFault, CorruptCheckpoint, Corrupt, Crash,
	Overloaded, BreakerOpen, ReadOnly, NotFound, MethodNotAllowed, Internal,
}

// Of returns the first row with a sentinel err wraps, or Internal.
func Of(err error) *Family {
	for _, f := range Table {
		for _, s := range f.errs {
			if errors.Is(err, s) {
				return f
			}
		}
	}
	return Internal
}
