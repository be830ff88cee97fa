package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/wal"
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

// FuzzFollowerPoll serves fuzzed bytes, with well-formed X-Mlvc-* headers,
// as the body of a primary's /replicate reply to one follower poll. Nothing
// may panic. The follower's applied seq moves only over the body's cleanly
// decoded prefix, and its edges then equal those of a reference graph that
// applied that prefix. Any other outcome is an error of a classified family:
// a corrupt frame, a sequence gap or a vertex past the graph's bound.
//
//	go test -run=NONE -fuzz FuzzFollowerPoll -fuzztime 10s ./internal/serve
func FuzzFollowerPoll(f *testing.F) {
	frames := func(recs ...wal.Record) []byte { return wal.EncodeFrames(recs) }
	add := func(seq uint64, src, dst uint32) wal.Record {
		return wal.Record{Op: wal.OpAdd, Src: src, Dst: dst, Seq: seq}
	}
	del := func(seq uint64, src, dst uint32) wal.Record {
		return wal.Record{Op: wal.OpDel, Src: src, Dst: dst, Seq: seq}
	}
	clean := frames(add(1, 1, 2), add(2, 2, 3), del(3, 1, 2), add(4, 200, 7))
	flipped := bytes.Clone(clean)
	flipped[wal.FrameSize+5] ^= 0x40
	for _, seed := range [][]byte{
		clean,
		clean[:len(clean)-3],                     // torn tail
		flipped,                                  // corrupt second frame
		frames(add(1, 1, 2), add(3, 2, 3)),       // gap
		frames(add(2, 1, 2)),                     // starts past the cursor
		frames(add(1, 1, 2), add(2, 1<<20, 3)),   // vertex out of range
		append(bytes.Clone(clean), clean[:9]...), // trailing garbage
		frames(add(1, 5, 5), del(2, 5, 5), add(3, 5, 5)),
		nil,
	} {
		f.Add(seed)
	}

	var body atomic.Pointer[[]byte]
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := *body.Load()
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		n := len(b) / wal.FrameSize
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Mlvc-From", strconv.FormatUint(from, 10))
		w.Header().Set("X-Mlvc-Frames", strconv.Itoa(n))
		w.Header().Set("X-Mlvc-Last-Seq", strconv.FormatUint(from-1+uint64(n), 10))
		_, _ = w.Write(b)
	}))
	f.Cleanup(primary.Close)

	families := []error{wal.ErrBadShipFrame, wal.ErrSeqGap, csr.ErrVertexOutOfRange}
	family := func(err error) error {
		for _, fam := range families {
			if errors.Is(err, fam) {
				return fam
			}
		}
		return err
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		fg := ingestFixture(t, csr.IngestOptions{})
		s, err := New(Options{Graph: fg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fol, err := s.newFollower(FollowerOptions{Primary: primary.URL})
		if err != nil {
			t.Fatal(err)
		}
		from := fg.AppliedSeq() + 1
		_, pollErr := fol.pollOnce()

		// The reference decodes the body in one piece and, unless the stream
		// has a gap (which fails the whole poll), applies its clean prefix.
		ref := ingestFixture(t, csr.IngestOptions{})
		prefix, refErr := wal.NewTailDecoder(from).Feed(data)
		if !errors.Is(refErr, wal.ErrSeqGap) {
			if _, err := ref.ApplyReplicated(prefix, 0); err != nil {
				refErr = err
			}
		}
		if pollErr != nil && family(pollErr) == pollErr {
			t.Fatalf("poll of %d bytes failed unclassified: %v", len(data), pollErr)
		}
		if family(pollErr) != family(refErr) {
			t.Fatalf("poll of %d bytes returned %v, the reference %v", len(data), pollErr, refErr)
		}
		if got, want := fol.applied.Load(), ref.AppliedSeq(); got != want || fg.AppliedSeq() != want {
			t.Fatalf("follower cursor %d, graph applied %d, reference applied %d", got, fg.AppliedSeq(), want)
		}
		if got, want := edgeLists(t, fg), edgeLists(t, ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("follower edges differ from the reference after applying %d frames", len(prefix))
		}
	})
}

// edgeLists returns every vertex's out-edges as g serves them now, pending
// mutations included.
func edgeLists(t *testing.T, g *csr.Graph) [][]uint32 {
	t.Helper()
	snap := g.Snapshot()
	defer snap.Release()
	sg := snap.Graph()
	out := make([][]uint32, sg.NumVertices())
	for iv, span := range sg.Intervals() {
		verts := make([]uint32, 0, span.Len())
		for v := span.Lo; v < span.Hi; v++ {
			verts = append(verts, v)
		}
		if _, err := sg.LoadOutEdges(iv, verts, func(v uint32, nbrs []uint32) {
			out[v] = append([]uint32{}, nbrs...)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
