package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"multilogvc/internal/csr"
)

// FuzzServeRequests posts fuzzed bodies to every JSON endpoint of a daemon
// with ingest on. Each reply must be a 200 carrying valid JSON or a
// structured error of a classified code. ServeHTTP recovers a handler
// panic into code "internal", so no body may ever earn that code.
//
//	go test -run=NONE -fuzz FuzzServeRequests -fuzztime 10s ./internal/serve
func FuzzServeRequests(f *testing.F) {
	paths := []string{"/query/bfs", "/query/sssp", "/walk", "/mutate"}
	point := []string{
		`{"source":3,"values":true,"deadline_ms":30000}`,
		`{"source":9,"targets":[0,9,77,500],"deadline_ms":30000}`,
		`{"source":1048576}`,
		`{"source":3,"deadline_ms":10000000000000}`,
		`{"source":3,"deadline_ms":4611686018427387904}`,
		`{"source":3,"deadline_ms":-1}`,
		`{"source":-1}`,
		`not json`,
		``,
	}
	seeds := map[string][]string{
		"/query/bfs":  point,
		"/query/sssp": point,
		"/walk": {
			`{"source":3,"walks":4,"length":8,"seed":99}`,
			`{"source":3,"walks":2,"length":4,"deadline_ms":-1}`,
			`{"source":3,"walks":1000}`,
			`{"source":3,"length":256}`,
			`{"source":1048576}`,
			`{}`,
		},
		"/mutate": {
			`{"mutations":[{"op":"add","src":1,"dst":2},{"op":"add","src":2,"dst":3},{"op":"del","src":1,"dst":2}]}`,
			`{"mutations":[{"op":"add","src":1,"dst":2,"weight":7}]}`,
			`{"mutations":[{"op":"upsert","src":1,"dst":2}]}`,
			`{"mutations":[{"op":"add","src":1,"dst":1048576}]}`,
			`{"mutations":[]}`,
			`{"mutations":null}`,
		},
	}
	for i, p := range paths {
		for _, body := range seeds[p] {
			f.Add(uint8(i), []byte(body))
		}
	}
	classified := map[string]bool{}
	for _, code := range []string{
		"deadline", "overloaded", "shutting_down", "breaker_open", "ingest_backpressure",
		"no_space", "device_fault", "corrupt", "bad_request", "read_only", "not_ready", "gap",
	} {
		classified[code] = true
	}

	g := ingestFixture(f, csr.IngestOptions{})
	s, err := New(Options{Graph: g, EnableIngest: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		p := paths[int(path)%len(paths)]
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, p, bytes.NewReader(body)))
		if w.Code == http.StatusOK {
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("%s %q: 200 with invalid JSON: %s", p, body, w.Body)
			}
			return
		}
		var e errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s %q: status %d, not an error body: %s", p, body, w.Code, w.Body)
		}
		if !classified[e.Error.Code] {
			t.Fatalf("%s %q: status %d, unclassified code %q: %s", p, body, w.Code, e.Error.Code, e.Error.Message)
		}
	})
}
