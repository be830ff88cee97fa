package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/vc"
)

// Walk limits: enough for neighborhood sampling, small enough that one
// request cannot monopolize the device.
const (
	maxWalksPerRequest = 64
	maxWalkLength      = 255
)

// walkRequest is the JSON body of POST /walk: a batch of random walks
// from one source, deterministic in (seed, vertex, step, walk index) via
// vc.Hash64 — the same draw apps.RandomWalk uses, so trajectories are
// reproducible across engines and requests.
type walkRequest struct {
	Source     uint32 `json:"source"`
	Walks      int    `json:"walks"`  // defaults to 1
	Length     int    `json:"length"` // defaults to 10
	Seed       uint64 `json:"seed"`
	DeadlineMS int64  `json:"deadline_ms"`
}

type walkResponse struct {
	Source uint32     `json:"source"`
	Walks  int        `json:"walks"`
	Length int        `json:"length"`
	Paths  [][]uint32 `json:"paths"`
	// Visits counts arrivals per vertex across all walks (the
	// DrunkardMob aggregate), keyed by vertex id.
	Visits map[string]uint32 `json:"visits"`
}

// handleWalk serves a random-walk batch directly over the CSR adjacency —
// walks touch a handful of vertices, so spinning a full engine run per
// request would cost more in scratch setup than the walk itself. It still
// passes admission (the queue cap, the breaker, a deadline, then an
// execution slot) so walk traffic cannot starve point queries.
func (s *Server) handleWalk(w http.ResponseWriter, r *http.Request) {
	live := obsv.Live()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "POST required")
		return
	}
	var req walkRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return
	}
	if req.Walks <= 0 {
		req.Walks = 1
	}
	if req.Length <= 0 {
		req.Length = 10
	}
	switch {
	case req.Source >= s.g.NumVertices():
		writeError(w, http.StatusBadRequest, "bad_request", "source out of range")
		return
	case req.Walks > maxWalksPerRequest:
		writeError(w, http.StatusBadRequest, "bad_request", "too many walks per request")
		return
	case req.Length > maxWalkLength:
		writeError(w, http.StatusBadRequest, "bad_request", "walk length too large")
		return
	}
	// Walks pass point queries' admission — their CSR reads hit the same
	// device — and record exactly one breaker outcome.
	deadline := requestDeadline(req.DeadlineMS, s.opts.DefaultDeadline)
	if !s.admit(w, deadline) {
		return
	}
	defer s.queued.Add(-1)
	recorded := false
	record := func(o outcome) {
		if !recorded {
			recorded = true
			s.brk.record(o)
		}
	}
	defer record(outcomeNeutral) // any early return not otherwise classified

	// Wait for a slot no longer than the deadline and the client allow.
	expire := time.NewTimer(time.Until(deadline))
	defer expire.Stop()
	select {
	case sl := <-s.slots: // a walk runs no engine: it leaves sl's working set alone
		defer func() { s.slots <- sl }()
	case <-expire.C:
		live.QueryDeadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline", "walk deadline expired waiting for an execution slot")
		return
	case <-r.Context().Done():
		return
	}

	resp := walkResponse{
		Source: req.Source, Walks: req.Walks, Length: req.Length,
		Paths:  make([][]uint32, req.Walks),
		Visits: make(map[string]uint32),
	}
	// Pin the delta epoch for the whole walk so every step — and the memo
	// below — reads one consistent graph even while ingest mutates it.
	snap := s.g.Snapshot()
	defer snap.Release()
	wg := snap.Graph()
	// Per-request adjacency memo: concurrent walks of one request revisit
	// hub vertices constantly, and each LoadOutEdges costs device pages.
	memo := make(map[uint32][]uint32)
	outEdges := func(v uint32) ([]uint32, error) {
		if nbrs, ok := memo[v]; ok {
			return nbrs, nil
		}
		var nbrs []uint32
		_, err := wg.LoadOutEdges(wg.IntervalOf(v), []uint32{v}, func(_ uint32, out []uint32) {
			nbrs = append([]uint32(nil), out...)
		})
		if err != nil {
			return nil, err
		}
		memo[v] = nbrs
		return nbrs, nil
	}

	for wi := 0; wi < req.Walks; wi++ {
		cur := req.Source
		path := make([]uint32, 1, req.Length+1)
		path[0] = cur
		for step := 0; step < req.Length; step++ {
			if time.Now().After(deadline) {
				live.QueryDeadlines.Add(1)
				writeError(w, http.StatusGatewayTimeout, "deadline", "walk deadline expired")
				return
			}
			nbrs, err := outEdges(cur)
			if err != nil {
				if retryable(err) {
					record(outcomeFault)
				}
				live.QueryErrors.Add(1)
				code, status := classify(err)
				writeError(w, status, code, err.Error())
				return
			}
			if len(nbrs) == 0 {
				break
			}
			h := vc.Hash64(req.Seed, uint64(cur), uint64(step), uint64(wi))
			cur = nbrs[h%uint64(len(nbrs))]
			path = append(path, cur)
			resp.Visits[strconv.FormatUint(uint64(cur), 10)]++
		}
		resp.Paths[wi] = path
	}
	record(outcomeSuccess)
	live.QueriesServed.Add(1)
	writeJSON(w, http.StatusOK, resp)
}
