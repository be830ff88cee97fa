package edgelog

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/ssd"
)

func TestPredictorActiveHistory(t *testing.T) {
	p := NewPredictor(10, 1024, 0.1)
	p.NoteActive(3)
	if !p.PredictActive(3) {
		t.Fatal("currently active vertex should be predicted active")
	}
	if p.PredictActive(4) {
		t.Fatal("inactive vertex predicted active")
	}
	p.EndSuperstep()
	// 3 was active last superstep: still predicted (N=1 history).
	if !p.PredictActive(3) {
		t.Fatal("history prediction failed")
	}
	p.EndSuperstep()
	// Two supersteps later the history has aged out.
	if p.PredictActive(3) {
		t.Fatal("history should only look back one superstep")
	}
}

func TestPredictorPageInefficiency(t *testing.T) {
	p := NewPredictor(10, 1000, 0.1)
	keyA := csr.PageKey{Side: 0, Interval: 0, Page: 1}
	keyB := csr.PageKey{Side: 0, Interval: 0, Page: 2}
	p.NotePageUtils([]csr.PageUtil{
		{Key: keyA, UsedBytes: 50},  // 5% — inefficient
		{Key: keyB, UsedBytes: 500}, // 50% — fine
	})
	if !p.PageIneffNow(keyA) || p.PageIneffNow(keyB) {
		t.Fatal("current inefficiency misclassified")
	}
	st := p.EndSuperstep()
	if st.InefficientPages != 1 || st.PagesTouched != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// keyA is now the prediction for the next superstep.
	if !p.PageIneff(keyA) || p.PageIneff(keyB) {
		t.Fatal("prediction set wrong")
	}
	// Touch keyA inefficiently again: correct prediction.
	p.NotePageUtils([]csr.PageUtil{{Key: keyA, UsedBytes: 10}})
	st = p.EndSuperstep()
	if st.Correct != 1 || st.PredictedIneff != 1 {
		t.Fatalf("accuracy stats = %+v", st)
	}
}

func TestPredictorZeroUtilizationNotInefficient(t *testing.T) {
	// The paper counts pages with >0% and <10% utilization.
	p := NewPredictor(10, 1000, 0.1)
	key := csr.PageKey{Side: 0, Interval: 0, Page: 5}
	p.NotePageUtils([]csr.PageUtil{{Key: key, UsedBytes: 0}})
	if p.PageIneffNow(key) {
		t.Fatal("0%% utilization should not count as inefficient")
	}
}

func TestPredictorDuplicateTouchesCountOnce(t *testing.T) {
	p := NewPredictor(10, 1000, 0.1)
	key := csr.PageKey{Side: 0, Interval: 0, Page: 5}
	p.NotePageUtils([]csr.PageUtil{{Key: key, UsedBytes: 10}})
	p.NotePageUtils([]csr.PageUtil{{Key: key, UsedBytes: 10}})
	st := p.EndSuperstep()
	if st.PagesTouched != 1 || st.InefficientPages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEdgeLogRoundTrip(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
	e, err := New(dev, "elog", false)
	if err != nil {
		t.Fatal(err)
	}
	// Log into the next generation; invisible until the swap.
	if err := e.LogEdges(5, []uint32{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.LogEdges(9, []uint32{4}, nil); err != nil {
		t.Fatal(err)
	}
	if e.Has(5) {
		t.Fatal("next-generation entry visible before swap")
	}
	if err := e.EndSuperstep(); err != nil {
		t.Fatal(err)
	}
	if !e.Has(5) || !e.Has(9) || e.Has(7) {
		t.Fatal("generation swap index wrong")
	}

	got := make(map[uint32][]uint32)
	pages, err := e.Load([]uint32{5, 9}, func(v uint32, nbrs, _ []uint32) {
		cp := make([]uint32, len(nbrs))
		copy(cp, nbrs)
		got[v] = cp
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 {
		t.Fatal("no pages read")
	}
	if len(got[5]) != 3 || got[5][0] != 1 || got[5][2] != 3 {
		t.Fatalf("edges of 5 = %v", got[5])
	}
	if len(got[9]) != 1 || got[9][0] != 4 {
		t.Fatalf("edges of 9 = %v", got[9])
	}
}

func TestEdgeLogGenerationExpiry(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
	e, _ := New(dev, "elog", false)
	e.LogEdges(5, []uint32{1}, nil)
	e.EndSuperstep()
	if !e.Has(5) {
		t.Fatal("entry missing after first swap")
	}
	e.EndSuperstep()
	if e.Has(5) {
		t.Fatal("entry survived two swaps")
	}
}

func TestEdgeLogDuplicateIgnored(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
	e, _ := New(dev, "elog", false)
	e.LogEdges(5, []uint32{1, 2}, nil)
	before := e.LoggedBytes()
	e.LogEdges(5, []uint32{9, 9, 9}, nil)
	if e.LoggedBytes() != before {
		t.Fatal("duplicate LogEdges extended the log")
	}
	e.EndSuperstep()
	var got []uint32
	e.Load([]uint32{5}, func(v uint32, nbrs, _ []uint32) {
		got = append(got, nbrs...)
	})
	if len(got) != 2 || got[0] != 1 {
		t.Fatalf("edges = %v, want first logging to win", got)
	}
}

func TestEdgeLogLoadUnknownVertex(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
	e, _ := New(dev, "elog", false)
	e.EndSuperstep()
	if _, err := e.Load([]uint32{1}, func(uint32, []uint32, []uint32) {}); err == nil {
		t.Fatal("loading unlogged vertex should fail")
	}
}

func TestEdgeLogZeroDegree(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
	e, _ := New(dev, "elog", false)
	e.LogEdges(3, nil, nil)
	e.EndSuperstep()
	called := false
	if _, err := e.Load([]uint32{3}, func(v uint32, nbrs, _ []uint32) {
		called = len(nbrs) == 0
	}); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("zero-degree vertex not served")
	}
}

func TestEdgeLogSpansPages(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2}) // 16 edges per page
	e, _ := New(dev, "elog", false)
	big := make([]uint32, 100)
	for i := range big {
		big[i] = uint32(i * 3)
	}
	e.LogEdges(1, big, nil)
	e.EndSuperstep()
	var got []uint32
	pages, err := e.Load([]uint32{1}, func(v uint32, nbrs, _ []uint32) {
		got = append(got, nbrs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages < 7 {
		t.Fatalf("expected multi-page read, got %d pages", pages)
	}
	for i, nb := range got {
		if nb != uint32(i*3) {
			t.Fatalf("edge %d = %d", i, nb)
		}
	}
}

func TestEdgeLogWeighted(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
	e, _ := New(dev, "elog", true)
	nbrs := []uint32{10, 20, 30}
	ws := []uint32{7, 8, 9}
	if err := e.LogEdges(1, nbrs, ws); err != nil {
		t.Fatal(err)
	}
	e.EndSuperstep()
	var gotN, gotW []uint32
	if _, err := e.Load([]uint32{1}, func(v uint32, n, w []uint32) {
		gotN = append(gotN, n...)
		gotW = append(gotW, w...)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range nbrs {
		if gotN[i] != nbrs[i] || gotW[i] != ws[i] {
			t.Fatalf("weighted round trip: %v %v", gotN, gotW)
		}
	}
}

// refLoad is the map-based Load this package had before Fill (commit
// 56a8d02), kept as the golden reference: page images in a map keyed by page,
// one lookup per word.
func refLoad(e *EdgeLog, verts []uint32) (map[uint32][2][]uint32, int, error) {
	stride := int64(4)
	if e.weighted {
		stride = 8
	}
	idx, ps := map[uint32]entry{}, int64(e.pageSize)
	for _, ent := range e.index[e.gen].ents {
		idx[ent.v] = ent
	}
	set := map[int]bool{}
	for _, v := range verts {
		ent := idx[v]
		for p := ent.off / ps; ent.deg > 0 && p <= (ent.off+int64(ent.deg)*stride-1)/ps; p++ {
			set[int(p)] = true
		}
	}
	pages := make([]int, 0, len(set))
	for p := range set {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	buf := make([]byte, len(pages)*e.pageSize)
	if err := e.files[e.gen].ReadPages(pages, buf); err != nil {
		return nil, 0, err
	}
	at := map[int][]byte{}
	for i, p := range pages {
		at[p] = buf[i*e.pageSize : (i+1)*e.pageSize]
	}
	u32 := func(off int64) uint32 { return binary.LittleEndian.Uint32(at[int(off/ps)][off%ps:]) }
	out := map[uint32][2][]uint32{}
	for _, v := range verts {
		ent := idx[v]
		lists := [2][]uint32{make([]uint32, ent.deg), nil}
		if e.weighted {
			lists[1] = make([]uint32, ent.deg)
		}
		for j := int64(0); j < int64(ent.deg); j++ {
			lists[0][j] = u32(ent.off + j*4)
			if e.weighted {
				lists[1][j] = u32(ent.off + int64(ent.deg)*4 + j*4)
			}
		}
		out[v] = lists
	}
	return out, len(pages), nil
}

// Load and Fill against the map-based reference: weighted and not, lists that
// span pages, zero-degree entries, vertices logged out of id order (offsets
// then descend while ids ascend) and a sparse subset of the log.
func TestEdgeLogFillMatchesMapBasedLoad(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
		e, err := New(dev, "elog", weighted)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		logged := rng.Perm(40) // log order is not id order
		for _, v := range logged {
			deg := rng.Intn(45) // up to 180 B of ids: three 64 B pages
			if v%7 == 0 {
				deg = 0
			}
			nbrs, weights := make([]uint32, deg), make([]uint32, deg)
			for j := range nbrs {
				nbrs[j], weights[j] = uint32(1000*v+j), uint32(7*v+j)
			}
			if err := e.LogEdges(uint32(v), nbrs, weights); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.EndSuperstep(); err != nil {
			t.Fatal(err)
		}
		var all, sparse []uint32
		for v := uint32(0); v < 40; v++ {
			all = append(all, v)
			if v%3 == 1 {
				sparse = append(sparse, v)
			}
		}
		var a csr.Arena
		for _, verts := range [][]uint32{all, sparse, {14}, {39}} {
			before := dev.Stats()
			want, wantPages, err := refLoad(e, verts)
			if err != nil {
				t.Fatal(err)
			}
			refIO := dev.Stats().Sub(before)

			before = dev.Stats()
			visited := 0
			pages, err := e.Load(verts, func(v uint32, nbrs, weights []uint32) {
				if !slices.Equal(nbrs, want[v][0]) || !slices.Equal(weights, want[v][1]) || (len(nbrs) > 0 && (weights == nil) != !weighted) {
					t.Errorf("weighted %v: Load gave vertex %d %v / %v, reference %v / %v", weighted, v, nbrs, weights, want[v][0], want[v][1])
				}
				visited++
			})
			if err != nil || pages != wantPages || visited != len(verts) {
				t.Fatalf("weighted %v: Load read %d pages over %d vertices (err %v), reference %d over %d", weighted, pages, visited, err, wantPages, len(verts))
			}
			if io := dev.Stats().Sub(before); io != refIO {
				t.Fatalf("weighted %v: device saw %+v, reference %+v", weighted, io, refIO)
			}

			// The engine's form: one arena reused, lists at reversed positions.
			pos := make([]int32, len(verts))
			for i := range pos {
				pos[i] = int32(len(verts) - 1 - i)
			}
			a.Reset(len(verts), weighted)
			if pages, err := e.Fill(verts, pos, &a); err != nil || pages != wantPages {
				t.Fatalf("weighted %v: Fill read %d pages (err %v), reference %d", weighted, pages, err, wantPages)
			}
			for i, v := range verts {
				p := int(pos[i])
				if !slices.Equal(a.Edges(p), want[v][0]) || !slices.Equal(a.Weights(p), want[v][1]) {
					t.Fatalf("weighted %v: Fill put %v / %v at position %d for vertex %d, reference %v / %v",
						weighted, a.Edges(p), a.Weights(p), p, v, want[v][0], want[v][1])
				}
			}
		}
	}
}

// A corrupt page under a load is the heal path's trigger: Load and Fill fail
// classified before they deliver a single list, and once the generation is
// invalidated no vertex claims to be logged.
func TestEdgeLogCorruptPageDeliversNothing(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: 64, Channels: 2})
	e, err := New(dev, "elog", false)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 8; v++ {
		if err := e.LogEdges(v, []uint32{v + 1, v + 2, v + 3, v + 4, v + 5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.EndSuperstep(); err != nil {
		t.Fatal(err)
	}
	if err := dev.CorruptStoredPage(e.files[e.gen].Name(), 1); err != nil {
		t.Fatal(err)
	}
	verts := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := e.Load(verts, func(v uint32, _, _ []uint32) { t.Errorf("vertex %d visited despite the corrupt page", v) }); !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("Load err = %v, want ErrCorruptPage", err)
	}
	var a csr.Arena
	a.Reset(len(verts), false)
	if _, err := e.Fill(verts, nil, &a); !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("Fill err = %v, want ErrCorruptPage", err)
	}
	for p := range verts {
		if a.Degree(p) != 0 {
			t.Fatalf("position %d holds %d edges after a failed fill", p, a.Degree(p))
		}
	}
	if err := e.InvalidateCurrent(); err != nil {
		t.Fatal(err)
	}
	for _, v := range verts {
		if e.Has(v) {
			t.Fatalf("vertex %d still logged after the generation was invalidated", v)
		}
	}
}
