package sortgroup

import (
	"math/rand"
	"slices"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/mlog"
	"multilogvc/internal/ssd"
)

// sendLog fills a log over equal-width intervals with n sends whose Src
// counts up in send order, and returns, per destination, the Src sequence
// it was sent — what delivery must reproduce.
func sendLog(t testing.TB, pageSize, intervals int, width uint32, n int, seed int64) (*mlog.Log, []csr.Interval, map[uint32][]uint32) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: pageSize, Channels: 2})
	ivs := make([]csr.Interval, intervals)
	for i := range ivs {
		ivs[i] = csr.Interval{Lo: uint32(i) * width, Hi: uint32(i+1) * width}
	}
	l, err := mlog.New(dev, "log", intervals, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sent := map[uint32][]uint32{}
	for i := 0; i < n; i++ {
		dst := uint32(rng.Intn(intervals * int(width)))
		if err := l.Append(int(dst/width), dst, uint32(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
		sent[dst] = append(sent[dst], uint32(i))
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return l, ivs, sent
}

// checkSendOrder holds recs — one chunk, sorted by destination — to the
// delivery contract: each destination's messages in the order they were sent.
func checkSendOrder(t *testing.T, recs []Rec, sent map[uint32][]uint32) {
	t.Helper()
	for i := 0; i < len(recs); {
		dst, j := recs[i].Dst, i
		var got []uint32
		for ; j < len(recs) && recs[j].Dst == dst; j++ {
			got = append(got, recs[j].Src)
		}
		if i > 0 && recs[i-1].Dst > dst {
			t.Fatalf("destination %d after %d", dst, recs[i-1].Dst)
		}
		if !slices.Equal(got, sent[dst]) {
			t.Fatalf("destination %d: delivered %v, sent %v", dst, got, sent[dst])
		}
		i = j
	}
}

// TestDeliveryInSendOrder: fused in memory or spilled through the external
// sort, a destination's messages arrive in send order.
func TestDeliveryInSendOrder(t *testing.T) {
	l, ivs, sent := sendLog(t, 120, 3, 40, 3000, 1)
	fused, err := Load(l, ivs, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fused.Close()
	if fused.LastIv != 2 || len(fused.Recs) != 3000 {
		t.Fatalf("fused [%d,%d] with %d records, want all three intervals and 3000", fused.FirstIv, fused.LastIv, len(fused.Recs))
	}
	checkSendOrder(t, fused.Recs, sent)

	spilled, err := Load(l, ivs, 0, Options{SortBudget: 100 * mlog.RecordBytes}) // ~10 runs per interval
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	if !spilled.Spilled {
		t.Fatal("an interval ten times the budget did not spill")
	}
	for more := true; more; {
		checkSendOrder(t, spilled.Recs, sent)
		if more, err = spilled.NextChunk(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecsSurviveLaterLoadsUntilClose: Recs is the batch's alone until Close
// — loading every other batch of the log while it is open, in memory or
// spilled, leaves it untouched — and a batch loaded after a Close is still
// right, whichever buffer it was handed.
func TestRecsSurviveLaterLoadsUntilClose(t *testing.T) {
	l, ivs, _ := sendLog(t, 120, 6, 50, 6000, 2)
	opts := Options{SortBudget: 2500 * mlog.RecordBytes} // two intervals a batch
	loadAll := func() (open []*Batch, snaps [][]Rec) {
		for iv := 0; iv < len(ivs); {
			b, err := Load(l, ivs, iv, opts)
			if err != nil {
				t.Fatal(err)
			}
			open, snaps = append(open, b), append(snaps, slices.Clone(b.Recs))
			iv = b.LastIv + 1
		}
		return open, snaps
	}
	open, snaps := loadAll()
	if len(open) < 3 {
		t.Fatalf("%d batches, want several open at once", len(open))
	}
	spilled, err := Load(l, ivs, 0, Options{SortBudget: 100 * mlog.RecordBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range open {
		if !slices.Equal(b.Recs, snaps[i]) {
			t.Fatalf("batch %d changed while later batches loaded", i)
		}
	}
	// Closing hands the buffers back; the next loads reuse them and must see
	// none of what they held.
	spilled.Close()
	for _, b := range open {
		b.Close()
		if b.Recs != nil {
			t.Fatal("Recs still reachable through a closed batch")
		}
		b.Close() // idempotent
	}
	again, snaps2 := loadAll()
	for i, b := range again {
		if !slices.Equal(snaps2[i], snaps[i]) {
			t.Fatalf("batch %d differs when loaded into recycled buffers", i)
		}
		b.Close()
	}
}

// BenchmarkSortgroupLoad: load, sort and close every batch of one dense
// superstep's log — 64 intervals of 80 vertices, 1,600 messages each, two
// intervals to a batch — in ns per message.
func BenchmarkSortgroupLoad(b *testing.B) {
	const intervals, width, perIv = 64, 80, 1600
	l, ivs, _ := sendLog(b, 4096, intervals, width, intervals*perIv, 1)
	opts := Options{SortBudget: 2 * perIv * mlog.RecordBytes * 11 / 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for iv := 0; iv < intervals; {
			batch, err := Load(l, ivs, iv, opts)
			if err != nil {
				b.Fatal(err)
			}
			if n := len(batch.Recs); n == 0 || batch.Recs[0].Dst > batch.Recs[n-1].Dst {
				b.Fatal("batch empty or not sorted")
			}
			iv = batch.LastIv + 1
			batch.Close()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(intervals*perIv), "ns/msg")
}
