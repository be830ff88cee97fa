package sortgroup

import (
	"math/rand"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/mlog"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// wideFixture builds a single 1000-vertex interval so spill chunking has
// room to cut many destination-aligned chunks.
func wideFixture(t *testing.T) (*mlog.Log, []csr.Interval) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 120, Channels: 2})
	ivs := []csr.Interval{{Lo: 0, Hi: 1000}}
	l, err := mlog.New(dev, "log", len(ivs), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return l, ivs
}

// drainChunks iterates a batch's chunks, checking per-chunk invariants, and
// returns the concatenated records and the chunk count.
func drainChunks(t *testing.T, b *Batch, iv csr.Interval) ([]vc.Msg, int) {
	t.Helper()
	var all []vc.Msg
	chunks := 0
	prevHi := iv.Lo
	for {
		chunks++
		if b.Lo != prevHi {
			t.Fatalf("chunk %d starts at %d, want %d (ranges must tile the interval)", chunks, b.Lo, prevHi)
		}
		if b.Hi <= b.Lo {
			t.Fatalf("chunk %d has empty range [%d,%d)", chunks, b.Lo, b.Hi)
		}
		for i, r := range b.Recs {
			if r.Dst < b.Lo || r.Dst >= b.Hi {
				t.Fatalf("chunk %d rec dst %d outside [%d,%d)", chunks, r.Dst, b.Lo, b.Hi)
			}
			if i > 0 && b.Recs[i-1].Dst > r.Dst {
				t.Fatalf("chunk %d not sorted by dst", chunks)
			}
		}
		all = append(all, b.Recs...)
		prevHi = b.Hi
		more, err := b.NextChunk()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if prevHi != iv.Hi {
		t.Fatalf("chunks end at %d, want %d", prevHi, iv.Hi)
	}
	return all, chunks
}

func TestSpillSingleOversizedInterval(t *testing.T) {
	l, ivs := wideFixture(t)
	rng := rand.New(rand.NewSource(7))
	ref := make(map[vc.Msg]int)
	const n = 500
	for i := 0; i < n; i++ {
		r := vc.Msg{Dst: uint32(rng.Intn(1000)), Src: uint32(i), Data: rng.Uint32()}
		l.Append(0, r.Dst, r.Src, r.Data)
		ref[r]++
	}
	l.FlushAll()

	budget := int64(50) * mlog.RecordBytes // 10% of the log
	b, err := Load(l, ivs, 0, Options{SortBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.Spilled {
		t.Fatalf("log of %d bytes under budget %d did not spill", n*mlog.RecordBytes, budget)
	}
	if b.FirstIv != 0 || b.LastIv != 0 {
		t.Fatalf("spilled batch spans [%d,%d], want [0,0]", b.FirstIv, b.LastIv)
	}
	if b.SpillBytes() != n*mlog.RecordBytes {
		t.Fatalf("SpillBytes = %d, want %d", b.SpillBytes(), n*mlog.RecordBytes)
	}

	all, chunks := drainChunks(t, b, ivs[0])
	if chunks < 2 {
		t.Fatalf("oversized log produced %d chunk(s), want several", chunks)
	}
	if len(all) != n {
		t.Fatalf("chunks delivered %d records, want %d (no truncation)", len(all), n)
	}
	for _, r := range all {
		ref[r]--
	}
	for r, c := range ref {
		if c != 0 {
			t.Fatalf("record multiset mismatch at %+v (count %d)", r, c)
		}
	}
}

// The spill path must produce the same per-vertex combined values as the
// in-memory path — the engine-level bit-identical guarantee in miniature.
func TestSpillMatchesInMemory(t *testing.T) {
	build := func() (*mlog.Log, []csr.Interval) {
		l, ivs := wideFixture(t)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 800; i++ {
			l.Append(0, uint32(rng.Intn(1000)), uint32(rng.Intn(1000)), rng.Uint32()%1000)
		}
		l.FlushAll()
		return l, ivs
	}

	fold := func(b *Batch) map[uint32]uint32 {
		out := make(map[uint32]uint32)
		for {
			g := NewGrouper(b, sumCombiner{})
			for {
				dst, msgs, ok := g.Next()
				if !ok {
					break
				}
				out[dst] = msgs[0].Data
			}
			more, err := b.NextChunk()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				return out
			}
		}
	}

	l1, ivs1 := build()
	mem, err := Load(l1, ivs1, 0, Options{SortBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Spilled {
		t.Fatal("reference load spilled")
	}
	want := fold(mem)

	l2, ivs2 := build()
	sp, err := Load(l2, ivs2, 0, Options{SortBudget: 30 * mlog.RecordBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if !sp.Spilled {
		t.Fatal("tight-budget load did not spill")
	}
	got := fold(sp)

	if len(got) != len(want) {
		t.Fatalf("%d active vertices, want %d", len(got), len(want))
	}
	for dst, v := range want {
		if got[dst] != v {
			t.Fatalf("dst %d: spilled value %d != in-memory %d", dst, got[dst], v)
		}
	}
}

// Exactly at the budget: load in memory. One record over: spill. The
// decision is a strict inequality on the counter estimate.
func TestSpillBoundaryExactBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		recs  int
		spill bool
	}{
		{"at-budget", 20, false},
		{"one-over", 21, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, ivs := wideFixture(t)
			for i := 0; i < tc.recs; i++ {
				l.Append(0, uint32(i), 0, uint32(i))
			}
			l.FlushAll()
			b, err := Load(l, ivs, 0, Options{SortBudget: 20 * mlog.RecordBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if b.Spilled != tc.spill {
				t.Fatalf("%d records, budget 20: Spilled = %v, want %v", tc.recs, b.Spilled, tc.spill)
			}
			all, _ := drainChunks(t, b, ivs[0])
			if len(all) != tc.recs {
				t.Fatalf("delivered %d records, want %d", len(all), tc.recs)
			}
		})
	}
}

// Fusing stops exactly at the budget edge: two logs that together fill the
// budget fuse; one more record and the second interval is left out.
func TestFuseAtBudgetEdge(t *testing.T) {
	for _, tc := range []struct {
		name     string
		iv1Recs  int
		wantLast int
	}{
		{"fits-exactly", 10, 1},
		{"one-over", 11, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, ivs := fixture(t)
			for i := 0; i < 10; i++ {
				l.Append(0, uint32(i), 0, 0)
			}
			for i := 0; i < tc.iv1Recs; i++ {
				l.Append(1, 10+uint32(i%10), 0, 0)
			}
			l.Append(2, 20, 0, 0) // non-empty so it can't fuse for free
			l.FlushAll()
			b, err := Load(l, ivs, 0, Options{SortBudget: 20 * mlog.RecordBytes})
			if err != nil {
				t.Fatal(err)
			}
			if b.Spilled {
				t.Fatal("fuse-edge load must stay in memory")
			}
			if b.FirstIv != 0 || b.LastIv != tc.wantLast {
				t.Fatalf("fused [%d,%d], want [0,%d]", b.FirstIv, b.LastIv, tc.wantLast)
			}
		})
	}
}

// NoFuse keeps batches to one interval without shrinking the budget: small
// logs stay unfused and in memory, oversized logs still spill.
func TestNoFuseStillSpills(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(0, 1, 0, 0)
	for i := 0; i < 50; i++ {
		l.Append(1, 10+uint32(i%10), 0, uint32(i))
	}
	l.FlushAll()
	opts := Options{SortBudget: 20 * mlog.RecordBytes, NoFuse: true}

	b0, err := Load(l, ivs, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b0.Spilled || b0.FirstIv != 0 || b0.LastIv != 0 || len(b0.Recs) != 1 {
		t.Fatalf("NoFuse small batch = %+v", b0)
	}

	b1, err := Load(l, ivs, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	if !b1.Spilled {
		t.Fatal("NoFuse oversized interval did not spill")
	}
	all, _ := drainChunks(t, b1, ivs[1])
	if len(all) != 50 {
		t.Fatalf("delivered %d records, want 50", len(all))
	}
}

// Close deletes the run files: device usage returns to its pre-spill level,
// and a second Close is a no-op.
func TestSpillCloseReleasesRuns(t *testing.T) {
	l, ivs := wideFixture(t)
	for i := 0; i < 200; i++ {
		l.Append(0, uint32(i%1000), 0, uint32(i))
	}
	l.FlushAll()
	dev := l.Device()
	before := dev.UsedBytes()

	b, err := Load(l, ivs, 0, Options{SortBudget: 40 * mlog.RecordBytes})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Spilled {
		t.Fatal("load did not spill")
	}
	if dev.UsedBytes() <= before {
		t.Fatal("spill wrote no run pages")
	}
	b.Close()
	b.Close() // idempotent
	if got := dev.UsedBytes(); got != before {
		t.Fatalf("after Close UsedBytes = %d, want %d (runs not reclaimed)", got, before)
	}
	if _, err := b.NextChunk(); err != nil {
		t.Fatal(err)
	}
}
