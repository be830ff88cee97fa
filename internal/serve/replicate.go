package serve

// GET /replicate is the primary's half of WAL-shipping replication: it
// serves verbatim CRC-framed WAL records out of the durable window so a
// follower can tail the mutation stream. The frames on the wire are
// byte-identical to the frames on the primary's device — the follower
// re-validates every CRC, so a mangled transport can never inject a
// mutation. POST /admin/promote is the operator's failover lever on a
// follower.

import (
	"net/http"
	"strconv"

	"multilogvc/internal/failure"
	"multilogvc/internal/obsv"
	"multilogvc/internal/wal"
)

// maxReplicateBatch bounds one /replicate response; a follower further
// behind simply polls again (each fetch advances its cursor).
const maxReplicateBatch = 65536

// handleReplicate streams a batch of WAL frames starting at ?from=<seq>
// (capped by ?max=<n>). Headers carry the window bookkeeping:
// X-Mlvc-Last-Seq is the primary's highest durable seq (the follower's
// lag reference), X-Mlvc-Frames the batch size. A from below the durable
// window — those frames were folded by a merge and truncated — is 410
// Gone with code "gap": the follower must re-seed, not skip.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, failure.MethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	from := uint64(1)
	if v := q.Get("from"); v != "" {
		p, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, failure.BadRequest, "invalid from: "+err.Error())
			return
		}
		from = p
	}
	max := 4096
	if v := q.Get("max"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			writeError(w, failure.BadRequest, "invalid max")
			return
		}
		max = p
	}
	if max > maxReplicateBatch {
		max = maxReplicateBatch
	}

	recs, last, err := s.g.ReplicationFrames(from, max)
	if err != nil {
		writeError(w, failure.Of(err), err.Error())
		return
	}
	body := wal.EncodeFrames(recs)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Mlvc-From", strconv.FormatUint(from, 10))
	w.Header().Set("X-Mlvc-Frames", strconv.Itoa(len(recs)))
	w.Header().Set("X-Mlvc-Last-Seq", strconv.FormatUint(last, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	if len(recs) > 0 {
		obsv.Live().FramesShipped.Add(int64(len(recs)))
	}
}

// handlePromote flips a follower writable: replication stops, /mutate
// opens, and the node is the new primary (its own /replicate keeps
// serving, so chained followers can re-point here). Idempotent; 400 on a
// node that is not a follower.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, failure.MethodNotAllowed, "POST required")
		return
	}
	f := s.fol.Load()
	if f == nil {
		writeError(w, failure.BadRequest, "not a follower: this node is already writable")
		return
	}
	first := f.Promote("operator request via /admin/promote")
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"promoted":    true,
		"first":       first, // false: it was already promoted
		"applied_seq": s.g.AppliedSeq(),
	})
}
