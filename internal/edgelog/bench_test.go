package edgelog

import (
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/ssd"
)

// BenchmarkPredictorSuperstep is one superstep of a thin frontier as the
// engine drives the predictor: 64 adjacency loads of 16 pages each noted, every
// page asked about twice (PageIneffNow per vertex and page), then the roll-over.
// Steady state allocates nothing.
func BenchmarkPredictorSuperstep(b *testing.B) {
	const intervals, loads, pagesPerLoad = 200, 64, 16
	p := NewPredictor(1<<18, 4096, 0)
	utils := make([][]csr.PageUtil, loads)
	for l := range utils {
		utils[l] = make([]csr.PageUtil, pagesPerLoad)
		for i := range utils[l] {
			key := csr.PageKey{Interval: int32(l * intervals / loads), Page: int32(3 * i)}
			utils[l][i] = csr.PageUtil{Key: key, UsedBytes: int32(64 + 128*(i%5))} // two in five under the threshold
		}
	}
	step := func() (ineff int) {
		for _, us := range utils {
			p.NotePageUtils(us)
			for _, u := range us {
				if p.PageIneffNow(u.Key) && p.PageIneffNow(u.Key) {
					ineff++
				}
			}
		}
		p.EndSuperstep()
		return ineff
	}
	step() // the bitmaps reach their size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if step() == 0 {
			b.Fatal("no page measured inefficient")
		}
	}
}

// BenchmarkEdgeLogHas asks a generation holding 256 of 262,144 vertices about
// every vertex of a 4,096-vertex batch, as loadAdjacency does.
func BenchmarkEdgeLogHas(b *testing.B) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 4096, Channels: 8})
	e, err := New(dev, "elog", false)
	if err != nil {
		b.Fatal(err)
	}
	nbrs := []uint32{1, 2, 3, 4}
	for v := uint32(0); v < 1<<18; v += 1 << 10 {
		if err := e.LogEdges(v, nbrs, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.EndSuperstep(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	held := 0
	for i := 0; i < b.N; i++ {
		for v := uint32(0); v < 4096; v++ {
			if e.Has(v << 6) {
				held++
			}
		}
	}
	if held != 256*b.N {
		b.Fatalf("Has said yes %d times, want %d", held, 256*b.N)
	}
}
