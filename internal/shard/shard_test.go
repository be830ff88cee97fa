package shard

import (
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

func testStore(t *testing.T, edges []graphio.Edge, budget int64) *Store {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 256, Channels: 4})
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{IntervalBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, "g.gc", 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func paperEdges() []graphio.Edge {
	return []graphio.Edge{
		{Src: 2, Dst: 0}, {Src: 5, Dst: 0},
		{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 5, Dst: 1},
		{Src: 5, Dst: 2}, {Src: 5, Dst: 3}, {Src: 5, Dst: 4},
	}
}

func TestBuildShardContents(t *testing.T) {
	s := testStore(t, paperEdges(), 3*csr.MsgBytes)
	total := 0
	for k := 0; k < s.NumShards(); k++ {
		recs, err := s.LoadShard(k)
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
		iv := s.Intervals()[k]
		for i, r := range recs {
			if !iv.Contains(r.Dst) {
				t.Fatalf("shard %d holds edge to %d outside %v", k, r.Dst, iv)
			}
			if r.Val[0] != 7 || r.Val[1] != 7 || r.Flags != 0 {
				t.Fatalf("initial record state wrong: %+v", r)
			}
			if i > 0 && recs[i-1].Src > r.Src {
				t.Fatalf("shard %d not sorted by src", k)
			}
		}
	}
	if total != len(paperEdges()) {
		t.Fatalf("shards hold %d records, want %d", total, len(paperEdges()))
	}
}

func TestShardRoundTrip(t *testing.T) {
	s := testStore(t, paperEdges(), 3*csr.MsgBytes)
	recs, err := s.LoadShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Skip("shard 0 empty")
	}
	recs[0].Val[1] = 99
	recs[0].Flags = FlagMsg1
	if err := s.StoreShard(0, recs); err != nil {
		t.Fatal(err)
	}
	again, err := s.LoadShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Val[1] != 99 || again[0].Flags != FlagMsg1 {
		t.Fatalf("round trip lost mutation: %+v", again[0])
	}
}

func TestStoreShardCountMismatch(t *testing.T) {
	s := testStore(t, paperEdges(), 3*csr.MsgBytes)
	recs, _ := s.LoadShard(0)
	if err := s.StoreShard(0, append(recs, Record{})); err == nil {
		t.Fatal("count mismatch should fail")
	}
}

func TestWindows(t *testing.T) {
	edges, _ := gen.RMAT(gen.DefaultRMAT(8, 8, 5))
	s := testStore(t, edges, 2048)
	if s.NumShards() < 2 {
		t.Skip("need multiple shards")
	}
	// Every record of shard j must appear in exactly one window block.
	for j := 0; j < s.NumShards(); j++ {
		seen := 0
		for k := 0; k < s.NumShards(); k++ {
			w, err := s.LoadWindow(j, k)
			if err != nil {
				t.Fatal(err)
			}
			iv := s.Intervals()[k]
			for _, r := range w.Records() {
				if !iv.Contains(r.Src) {
					t.Fatalf("window (%d,%d) holds src %d outside %v", j, k, r.Src, iv)
				}
				seen++
			}
		}
		if seen != s.Count(j) {
			t.Fatalf("windows of shard %d cover %d records, want %d", j, seen, s.Count(j))
		}
	}
}

func TestWindowFindAndWriteBack(t *testing.T) {
	edges, _ := gen.RMAT(gen.DefaultRMAT(8, 8, 6))
	s := testStore(t, edges, 2048)
	if s.NumShards() < 2 {
		t.Skip("need multiple shards")
	}
	// Pick a window with records; mutate via Find; write back; re-read.
	for j := 0; j < s.NumShards(); j++ {
		for k := 0; k < s.NumShards(); k++ {
			if j == k {
				continue
			}
			w, err := s.LoadWindow(j, k)
			if err != nil {
				t.Fatal(err)
			}
			recs := w.Records()
			if len(recs) == 0 {
				continue
			}
			target := recs[len(recs)/2]
			found := w.Find(target.Src, target.Dst)
			if found == nil {
				t.Fatalf("Find(%d,%d) missed existing record", target.Src, target.Dst)
			}
			found.Val[0] = 1234
			found.Flags |= FlagMsg0
			if err := w.WriteBack(); err != nil {
				t.Fatal(err)
			}
			w2, err := s.LoadWindow(j, k)
			if err != nil {
				t.Fatal(err)
			}
			got := w2.Find(target.Src, target.Dst)
			if got == nil || got.Val[0] != 1234 || got.Flags&FlagMsg0 == 0 {
				t.Fatalf("write back lost mutation: %+v", got)
			}
			if w.Find(0xFFFFFFF0, 0) != nil {
				t.Fatal("Find invented a record")
			}
			return
		}
	}
	t.Skip("no non-empty cross window found")
}

func TestWindowWriteBackPreservesNeighbors(t *testing.T) {
	edges, _ := gen.RMAT(gen.DefaultRMAT(8, 8, 7))
	s := testStore(t, edges, 1024)
	if s.NumShards() < 3 {
		t.Skip("need several shards")
	}
	j := s.NumShards() - 1
	before, _ := s.LoadShard(j)
	// Write back an unmodified middle window; the shard must be unchanged.
	w, err := s.LoadWindow(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBack(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.LoadShard(j)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("record %d changed by unrelated window write", i)
		}
	}
}

func TestTotalPages(t *testing.T) {
	s := testStore(t, paperEdges(), 3*csr.MsgBytes)
	if s.TotalPages() == 0 {
		t.Fatal("TotalPages = 0")
	}
}

func TestBuildReadsPendingDeltas(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 256, Channels: 4})
	g, err := csr.Build(dev, "g", paperEdges(), csr.BuildOptions{IntervalBudget: 3 * csr.MsgBytes})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]csr.Mutation{{Src: 4, Dst: 0}}, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]csr.Mutation{{Del: true, Src: 5, Dst: 0}}, 1<<20); err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, "g.gc", 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.LoadShard(g.IntervalOf(0))
	if err != nil {
		t.Fatal(err)
	}
	var srcs []uint32
	for _, r := range recs {
		if r.Dst == 0 {
			srcs = append(srcs, r.Src)
		}
	}
	if len(srcs) != 2 || srcs[0] != 2 || srcs[1] != 4 {
		t.Fatalf("in-edges of 0 in its shard come from %v, want [2 4]", srcs)
	}
}
