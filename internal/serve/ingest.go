package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"multilogvc/internal/csr"
	"multilogvc/internal/failure"
	"multilogvc/internal/obsv"
)

// POST /mutate is the serving face of durable streaming ingest: a batch
// of edge mutations, acknowledged only once the whole batch is durable
// (WAL group commit) and applied to the delta overlay under one epoch.
// In-flight queries are unaffected — they read their pinned snapshot
// epoch — and subsequent queries see the new edges.
//
// Ingest is deliberately breaker-NEUTRAL: the fault circuit breaker
// models query-path device health, and an ingest failure (backpressure,
// WAL write fault) must not shed unrelated read traffic — nor may a
// flood of healthy ingest acks close a breaker queries opened.

// maxMutationsPerRequest bounds one /mutate body; larger feeds should
// split into multiple batches (each is one group commit anyway).
const maxMutationsPerRequest = 4096

// mutateRequest is the JSON body of POST /mutate.
type mutateRequest struct {
	Mutations []mutationSpec `json:"mutations"`
}

type mutationSpec struct {
	// Op is "add" or "del".
	Op  string `json:"op"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	// Weight applies to adds on weighted graphs; ignored otherwise.
	Weight uint32 `json:"weight,omitempty"`
}

// mutateResponse acknowledges a durable, applied batch.
type mutateResponse struct {
	Acked   int    `json:"acked"`   // mutations in the batch
	Epoch   uint64 `json:"epoch"`   // epoch the batch published
	Pending int    `json:"pending"` // buffered delta side-entries after the batch
	Durable bool   `json:"durable"` // WAL-backed (false = volatile ingest)
	Merges  int    `json:"merges"`  // delta merges so far (did this batch trigger one)
}

// handleMutate admits one mutation batch. Admission mirrors the query
// path (method, body, validation, drain) minus deadline/queue/breaker:
// mutations are cheap until the WAL write, which is itself the ack.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	live := obsv.Live()
	if r.Method != http.MethodPost {
		writeError(w, failure.MethodNotAllowed, "POST required")
		return
	}
	if s.readOnly.Load() {
		writeError(w, failure.ReadOnly,
			"this node is a read-only replication follower; mutate the primary, or promote this node via POST /admin/promote")
		return
	}
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, failure.BadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, failure.BadRequest, "mutations must be non-empty")
		return
	}
	if len(req.Mutations) > maxMutationsPerRequest {
		writeError(w, failure.BadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Mutations), maxMutationsPerRequest))
		return
	}
	n := s.g.NumVertices()
	ms := make([]csr.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		switch m.Op {
		case "add":
			ms[i] = csr.Mutation{Src: m.Src, Dst: m.Dst, Weight: m.Weight}
		case "del":
			ms[i] = csr.Mutation{Del: true, Src: m.Src, Dst: m.Dst}
		default:
			writeError(w, failure.BadRequest,
				fmt.Sprintf("mutation %d: op %q (want \"add\" or \"del\")", i, m.Op))
			return
		}
		if m.Src >= n || m.Dst >= n {
			writeError(w, failure.BadRequest,
				fmt.Sprintf("mutation %d: edge (%d,%d) out of range (graph has %d vertices)", i, m.Src, m.Dst, n))
			return
		}
	}
	if s.closed.Load() {
		writeError(w, failure.ShuttingDown, "server is draining")
		return
	}

	if err := s.g.ApplyMutations(ms, 0); err != nil {
		f := failure.Of(err)
		if f == failure.IngestBackpressure {
			live.IngestBackpressure.Add(1)
		} else {
			live.IngestErrors.Add(1)
		}
		writeError(w, f, err.Error())
		return
	}
	live.IngestBatches.Add(1)
	live.IngestMutations.Add(int64(len(ms)))
	st := s.g.IngestStats()
	writeJSON(w, http.StatusOK, mutateResponse{
		Acked:   len(ms),
		Epoch:   st.Epoch,
		Pending: st.Pending,
		Durable: st.Durable,
		Merges:  st.Merges,
	})
}
