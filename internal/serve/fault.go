package serve

import (
	"io"
	"net/http"

	"multilogvc/internal/failure"
	"multilogvc/internal/ssd"
)

// Fault control, registered only when Options.FaultControl is
// set (mlvcd -fault): POST /debug/fault replaces the device's armed fault
// plan while the daemon runs, so a cross-process harness (the CI fault
// smoke) can drive a fault-storm -> breaker-open -> heal -> recovery cycle
// against a real daemon without restarting it. The body is the one-line
// spec ssd.ParseFaultPlan reads; an empty body heals the device. Strictly a
// testing surface — production deployments leave FaultControl off and the
// endpoint absent.

// maxFaultSpec bounds the request body; a real spec is a few dozen bytes.
const maxFaultSpec = 4096

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, failure.MethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFaultSpec+1))
	if err != nil || len(body) > maxFaultSpec {
		writeError(w, failure.BadRequest, "fault spec unreadable or too long")
		return
	}
	plan, err := ssd.ParseFaultPlan(string(body))
	if err != nil {
		writeError(w, failure.BadRequest, err.Error())
		return
	}
	s.dev.SetFaults(plan)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
