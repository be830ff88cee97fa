package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/ckpt"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/ssd"
)

// TestCheckpointPayloadPinned holds what a checkpoint carries across a crash
// — carry set, values, pending messages, the edge log's generation and the
// predictor's history — to the bytes the map-based edge-log bookkeeping wrote
// (hash computed at commit 0b35599), field by field in the payload's order.
// The per-superstep stats that end the payload are left out: they carry wall
// times. A change to any hashed field means a run resumed from an older
// checkpoint would no longer re-log what an uninterrupted run does.
func TestCheckpointPayloadPinned(t *testing.T) {
	const pinned = "443596a5b6c33dcbde5838cbeb0676349ef4a5a21e0f48fc87152e0656d3d15c"
	// A thin frontier over a grid with shortcuts: most touched colidx pages
	// serve one or two vertices of their thirty.
	edges, err := gen.SmallWorld(64, 64, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 4})
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: 64 * 64, IntervalBudget: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxSupersteps: 50, CheckpointEvery: 1, StopAfter: func(step int, _ uint64) bool { return step >= 9 }}
	if _, err := New(g, cfg).Run(&apps.BFS{Source: 0}); err != nil {
		t.Fatal(err)
	}
	st, err := ckpt.Load(dev, "g.bfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Elog) == 0 || len(st.PredIneff) == 0 {
		t.Fatalf("fixed run checkpointed %d edge-log entries and %d inefficient pages: it must exercise both", len(st.Elog), len(st.PredIneff))
	}
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(uint32(st.Step), st.NumVertices, st.CumProcessed, uint32(len(st.Carry)), st.Carry, uint32(len(st.Values)), st.Values)
	for _, recs := range st.Msgs {
		put(uint32(len(recs)))
		for _, r := range recs {
			put(r.Dst, r.Src, r.Data)
		}
	}
	for _, e := range st.Elog {
		put(e.V, uint32(len(e.Nbrs)), e.Nbrs, e.Weights != nil, e.Weights)
	}
	put(uint32(len(st.PredActive)), st.PredActive, uint32(len(st.PredIneff)))
	for _, k := range st.PredIneff {
		put(k.Side, k.Interval, k.Page)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Fatalf("checkpoint payload hash = %s, pinned %s (step %d, %d edge-log entries, %d inefficient pages)",
			got, pinned, st.Step, len(st.Elog), len(st.PredIneff))
	}
}
