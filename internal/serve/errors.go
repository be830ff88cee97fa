package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"multilogvc/internal/failure"
)

// Every error a request can die of leaves as structured JSON —
// {"error":{"code":"...","message":"..."}} — with the code and HTTP
// status of its failure.Family, the one table that also gives cmd/mlvc
// its exit codes, so a load balancer or client can react per class
// (retry later vs give up vs page an operator) without parsing prose.
// README's wire-code table lists every code with its meaning.
//
// Every 503 and 507 carries a Retry-After header: a well-behaved client
// backs off exactly as long as the daemon asks, which is what lets the
// breaker's half-open probes breathe.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeError emits f's structured error body under f's status, with the
// default Retry-After for shed statuses (1s for 503s, 5s for 507 — quota
// reclamation is slower than queue drain). Use writeErrorRetry when the
// caller knows better (the breaker's remaining cooldown).
func writeError(w http.ResponseWriter, f *failure.Family, msg string) {
	retryAfter := 0
	switch f.Status {
	case http.StatusServiceUnavailable:
		retryAfter = 1
	case http.StatusInsufficientStorage:
		retryAfter = 5
	}
	writeErrorRetry(w, f, msg, retryAfter)
}

func writeErrorRetry(w http.ResponseWriter, f *failure.Family, msg string, retryAfter int) {
	var body errorBody
	body.Error.Code = f.Code
	body.Error.Message = msg
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(f.Status)
	_ = json.NewEncoder(w).Encode(body)
}
