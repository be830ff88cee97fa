package sortgroup

import (
	"math/rand"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/mlog"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

func fixture(t *testing.T) (*mlog.Log, []csr.Interval) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 120, Channels: 2})
	ivs := []csr.Interval{{Lo: 0, Hi: 10}, {Lo: 10, Hi: 20}, {Lo: 20, Hi: 30}}
	l, err := mlog.New(dev, "log", len(ivs), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return l, ivs
}

func TestLoadFusedSingleInterval(t *testing.T) {
	l, ivs := fixture(t)
	// Fill every interval beyond the tiny budget so no fusing happens.
	for i := uint32(0); i < 30; i++ {
		l.Append(int(i/10), i, 99, i*2)
	}
	l.FlushAll()
	// Budget fits exactly one interval's log: no room to fuse, no spill.
	b, err := Load(l, ivs, 0, Options{SortBudget: 10 * mlog.RecordBytes})
	if err != nil {
		t.Fatal(err)
	}
	if b.Spilled {
		t.Fatal("a log exactly at the budget must not spill")
	}
	if b.FirstIv != 0 || b.LastIv != 0 {
		t.Fatalf("fused [%d,%d], want [0,0]", b.FirstIv, b.LastIv)
	}
	if len(b.Recs) != 10 {
		t.Fatalf("recs = %d, want 10", len(b.Recs))
	}
	for i := 1; i < len(b.Recs); i++ {
		if b.Recs[i-1].Dst > b.Recs[i].Dst {
			t.Fatal("records not sorted by dst")
		}
	}
}

func TestLoadFusedMergesSmallLogs(t *testing.T) {
	l, ivs := fixture(t)
	for i := uint32(0); i < 30; i++ {
		l.Append(int(i/10), i, 0, 0)
	}
	l.FlushAll()
	// Budget fits everything: all three logs fuse into one batch.
	b, err := Load(l, ivs, 0, Options{SortBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if b.FirstIv != 0 || b.LastIv != 2 {
		t.Fatalf("fused [%d,%d], want [0,2]", b.FirstIv, b.LastIv)
	}
	if b.Lo != 0 || b.Hi != 30 {
		t.Fatalf("range [%d,%d)", b.Lo, b.Hi)
	}
	if len(b.Recs) != 30 {
		t.Fatalf("recs = %d", len(b.Recs))
	}
}

func TestLoadFusedPartial(t *testing.T) {
	l, ivs := fixture(t)
	// Interval 0 and 1 small, interval 2 large.
	l.Append(0, 1, 0, 0)
	l.Append(1, 11, 0, 0)
	for i := 0; i < 50; i++ {
		l.Append(2, 21, 0, 0)
	}
	l.FlushAll()
	b, err := Load(l, ivs, 0, Options{SortBudget: 5 * mlog.RecordBytes})
	if err != nil {
		t.Fatal(err)
	}
	if b.FirstIv != 0 || b.LastIv != 1 {
		t.Fatalf("fused [%d,%d], want [0,1]", b.FirstIv, b.LastIv)
	}
}

func TestLoadSortsByDst(t *testing.T) {
	l, ivs := fixture(t)
	for _, dst := range []uint32{5, 3, 5, 3, 7, 5} {
		l.Append(0, dst, 0, 0)
	}
	l.FlushAll()
	b, _ := Load(l, ivs, 0, Options{SortBudget: 1 << 20})
	want := []uint32{3, 3, 5, 5, 5, 7}
	if len(b.Recs) != len(want) {
		t.Fatalf("recs = %v, want dsts %v", b.Recs, want)
	}
	for i := range want {
		if b.Recs[i].Dst != want[i] {
			t.Fatalf("recs = %v, want dsts %v", b.Recs, want)
		}
	}
}

func TestGrouperGroupsByDst(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(0, 2, 10, 100)
	l.Append(0, 2, 11, 200)
	l.Append(0, 4, 12, 300)
	l.FlushAll()
	b, _ := Load(l, ivs, 0, Options{SortBudget: 1 << 20})
	g := NewGrouper(b, nil)

	dst, msgs, ok := g.Next()
	if !ok || dst != 2 || len(msgs) != 2 {
		t.Fatalf("first group dst=%d msgs=%v", dst, msgs)
	}
	total := msgs[0].Data + msgs[1].Data
	if total != 300 {
		t.Fatalf("group payloads = %v", msgs)
	}
	dst, msgs, ok = g.Next()
	if !ok || dst != 4 || len(msgs) != 1 || msgs[0].Data != 300 {
		t.Fatalf("second group dst=%d msgs=%v", dst, msgs)
	}
	if _, _, ok := g.Next(); ok {
		t.Fatal("grouper did not end")
	}
}

type sumCombiner struct{}

func (sumCombiner) Combine(a, b uint32) uint32 { return a + b }

func TestGrouperCombines(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(0, 2, 10, 100)
	l.Append(0, 2, 11, 200)
	l.Append(0, 2, 12, 300)
	l.FlushAll()
	b, _ := Load(l, ivs, 0, Options{SortBudget: 1 << 20})
	g := NewGrouper(b, sumCombiner{})
	_, msgs, ok := g.Next()
	if !ok || len(msgs) != 1 || msgs[0].Data != 600 {
		t.Fatalf("combined msgs = %v", msgs)
	}
}

// Property: grouped output equals a map-based grouping of the input.
func TestGrouperMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l, ivs := fixture(t)
	ref := make(map[uint32][]vc.Msg)
	for i := 0; i < 500; i++ {
		dst := uint32(rng.Intn(30))
		src := uint32(rng.Intn(30))
		data := rng.Uint32()
		l.Append(int(dst/10), dst, src, data)
		ref[dst] = append(ref[dst], vc.Msg{Dst: dst, Src: src, Data: data})
	}
	l.FlushAll()
	b, err := Load(l, ivs, 0, Options{SortBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrouper(b, nil)
	groups := 0
	for {
		dst, msgs, ok := g.Next()
		if !ok {
			break
		}
		groups++
		want := ref[dst]
		if len(msgs) != len(want) {
			t.Fatalf("dst %d: %d msgs, want %d", dst, len(msgs), len(want))
		}
		// Compare as multisets (order is unspecified).
		counts := make(map[vc.Msg]int)
		for _, m := range msgs {
			counts[m]++
		}
		for _, m := range want {
			counts[m]--
		}
		for m, c := range counts {
			if c != 0 {
				t.Fatalf("dst %d: message multiset mismatch at %v", dst, m)
			}
		}
	}
	if groups != len(ref) {
		t.Fatalf("%d groups, want %d", groups, len(ref))
	}
}

func TestLoadFusedLastInterval(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(2, 25, 0, 0)
	l.FlushAll()
	b, err := Load(l, ivs, 2, Options{SortBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if b.FirstIv != 2 || b.LastIv != 2 || len(b.Recs) != 1 {
		t.Fatalf("batch = %+v", b)
	}
}

func TestGrouperEmptyBatch(t *testing.T) {
	l, ivs := fixture(t)
	b, err := Load(l, ivs, 0, Options{SortBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Recs) != 0 {
		t.Fatalf("recs = %v", b.Recs)
	}
	g := NewGrouper(b, nil)
	if _, _, ok := g.Next(); ok {
		t.Fatal("Next on empty batch returned a group")
	}
}
