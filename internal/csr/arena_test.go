package csr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

// scanOf is the interval lookup the rank table must agree with.
func scanOf(ivs []Interval, v uint32) int {
	for i, iv := range ivs {
		if iv.Contains(v) {
			return i
		}
	}
	return -1
}

func checkIndexAllVertices(t *testing.T, name string, ivs []Interval, n uint32) {
	t.Helper()
	idx := NewIntervalIndex(ivs, n)
	for v := uint32(0); v < n; v++ {
		if got, want := idx.Of(v), scanOf(ivs, v); got != want {
			t.Fatalf("%s: Of(%d) = %d, linear scan says %d (%d intervals over %d vertices)", name, v, got, want, len(ivs), n)
		}
	}
}

// The rank table against a linear scan, for every vertex, on the partitions
// that broke or slowed the block scan it replaced.
func TestIntervalIndexMatchesScanEverywhere(t *testing.T) {
	// RMAT-skewed in-degrees under a small budget: hub vertices get
	// intervals of their own, dozens of them inside one 64-vertex block.
	edges, err := gen.RMAT(gen.DefaultRMAT(12, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(1 << 12)
	inDeg := make([]uint32, n)
	for _, e := range edges {
		inDeg[e.Dst]++
	}
	skewed := Partition(inDeg, MsgBytes, 2048)
	hubs := 0
	for _, iv := range skewed {
		if iv.Len() == 1 {
			hubs++
		}
	}
	if hubs < 8 {
		t.Fatalf("the RMAT partition has only %d one-vertex intervals; the case is not exercised", hubs)
	}
	checkIndexAllVertices(t, "rmat-skewed", skewed, n)

	checkIndexAllVertices(t, "one interval", []Interval{{0, 1000}}, 1000)
	checkIndexAllVertices(t, "n=1", []Interval{{0, 1}}, 1)
	// n a multiple of no block width, interval bounds on and around block
	// edges, and a one-vertex last interval (the last vertex).
	checkIndexAllVertices(t, "ragged", []Interval{{0, 63}, {63, 64}, {64, 65}, {65, 128}, {128, 129}, {129, 321}, {321, 322}}, 322)
	every := make([]Interval, 200)
	for i := range every {
		every[i] = Interval{uint32(i), uint32(i + 1)}
	}
	checkIndexAllVertices(t, "every vertex its own interval", every, 200)
}

// Property: random contiguous partitions, every vertex.
func TestQuickIntervalIndexEveryVertex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(3000) + 1)
		var ivs []Interval
		for lo := uint32(0); lo < n; {
			w := uint32(1)
			if rng.Intn(3) > 0 {
				w += uint32(rng.Intn(200))
			}
			hi := min(lo+w, n)
			ivs = append(ivs, Interval{lo, hi})
			lo = hi
		}
		idx := NewIntervalIndex(ivs, n)
		for v := uint32(0); v < n; v++ {
			if idx.Of(v) != scanOf(ivs, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// adjRecord is what a load delivers for one vertex.
type adjRecord struct {
	v             uint32
	nbrs, weights []uint32
	first, last   int32
}

// refLoadEdges is the map-based adjacency load this package had before the
// arena (commit 56a8d02), kept as the golden reference: a map of used bytes
// and of page images keyed by page, one map lookup per edge. It tolerates any
// vertex order, which is how the tests know the new forms changed nothing but
// the contract. One deliberate departure, checked against that commit: there
// a weighted load whose first vertex had no CSR edges handed the overlay nil
// weights, so a delta add on that vertex lost its weight; the reference (and
// the arena) keep it.
func refLoadEdges(g *Graph, side uint8, weighted bool, iv int, verts []uint32) ([]adjRecord, LoadStats, error) {
	rowF, colF := g.files[side][colRow][iv], g.files[side][colIdx][iv]
	var valF *ssd.File
	if weighted && g.meta.HasWeights {
		valF = g.files[side][colVal][iv]
	}
	var stats LoadStats
	var epoch uint64
	if g.ing != nil {
		if epoch = g.ing.epoch.Load(); g.pinned {
			epoch = g.atEpoch
		}
	}
	interval := g.meta.Intervals[iv]
	ps := g.dev.PageSize()
	readPages := func(f *ssd.File, set map[int]bool) (map[int][]byte, []int, error) {
		pages := make([]int, 0, len(set))
		for p := range set {
			pages = append(pages, p)
		}
		sort.Ints(pages)
		buf := make([]byte, len(pages)*ps)
		if err := f.ReadPages(pages, buf); err != nil {
			return nil, nil, err
		}
		at := make(map[int][]byte, len(pages))
		for i, p := range pages {
			at[p] = buf[i*ps : (i+1)*ps]
		}
		return at, pages, nil
	}
	rowSet := map[int]bool{}
	for _, v := range verts {
		bLo := int64(v-interval.Lo) * 8
		for p := bLo / int64(ps); p <= (bLo+15)/int64(ps); p++ {
			rowSet[int(p)] = true
		}
	}
	rowAt, rowPages, err := readPages(rowF, rowSet)
	if err != nil {
		return nil, stats, err
	}
	stats.RowPtrPages = len(rowPages)
	entry := func(j int64) uint64 {
		return binary.LittleEndian.Uint64(rowAt[int(j*8/int64(ps))][j*8%int64(ps):])
	}
	used := map[int]int32{}
	colSet := map[int]bool{}
	for _, v := range verts {
		j := int64(v - interval.Lo)
		bLo, bHi := int64(entry(j))*4, int64(entry(j+1))*4
		if bLo == bHi {
			continue
		}
		for p := bLo / int64(ps); p <= (bHi-1)/int64(ps); p++ {
			used[int(p)] += int32(min(bHi, (p+1)*int64(ps)) - max(bLo, p*int64(ps)))
			colSet[int(p)] = true
		}
	}
	colAt, colPages, err := readPages(colF, colSet)
	if err != nil {
		return nil, stats, err
	}
	stats.ColIdxPages = len(colPages)
	for _, p := range colPages {
		stats.PageUtils = append(stats.PageUtils, PageUtil{
			Key: PageKey{Side: side, Interval: int32(iv), Page: int32(p)}, UsedBytes: used[p]})
	}
	var valAt map[int][]byte
	if valF != nil {
		valSet := map[int]bool{}
		for _, p := range colPages {
			if p < valF.NumPages() {
				valSet[p] = true
			}
		}
		var valPages []int
		if valAt, valPages, err = readPages(valF, valSet); err != nil {
			return nil, stats, err
		}
		stats.ValPages = len(valPages)
	}
	var out []adjRecord
	for _, v := range verts {
		j := int64(v - interval.Lo)
		start, end := entry(j), entry(j+1)
		rec := adjRecord{v: v, nbrs: make([]uint32, end-start), first: 1, last: 0}
		if valAt != nil {
			rec.weights = make([]uint32, end-start)
		}
		for k := range rec.nbrs {
			off := (int64(start) + int64(k)) * 4
			rec.nbrs[k] = binary.LittleEndian.Uint32(colAt[int(off/int64(ps))][off%int64(ps):])
			if rec.weights != nil {
				rec.weights[k] = binary.LittleEndian.Uint32(valAt[int(off/int64(ps))][off%int64(ps):])
			}
		}
		if end > start {
			rec.first, rec.last = int32(int64(start)*4/int64(ps)), int32((int64(end)*4-1)/int64(ps))
		}
		if g.ing != nil {
			rec.nbrs, rec.weights, _ = g.ing.deltas.apply(side, v, rec.nbrs, rec.weights, epoch)
		}
		out = append(out, rec)
	}
	return out, stats, nil
}

// loadAll runs one load form and records every vertex it delivers: a fill
// of an arena weighted as an engine weights it (weighted && g.HasWeights()),
// or, with visitor set, LoadOutEdges, the one visitor form. That hands out no
// weights and no page range, so the caller compares its lists alone.
func loadAll(g *Graph, side uint8, weighted, visitor bool, iv int, verts []uint32) ([]adjRecord, LoadStats, error) {
	var out []adjRecord
	if visitor {
		stats, err := g.LoadOutEdges(iv, verts, func(v uint32, nbrs []uint32) {
			out = append(out, adjRecord{v: v, nbrs: slices.Clone(nbrs)})
		})
		return out, stats, err
	}
	fill := g.FillOutEdges
	if side == 1 {
		fill = g.FillInEdges
	}
	var a Arena
	a.Reset(len(verts), weighted && g.HasWeights())
	stats, err := fill(iv, verts, nil, &a)
	if err != nil {
		return nil, stats, err
	}
	for i, v := range verts {
		first, last := a.PageRange(i)
		out = append(out, adjRecord{v: v, nbrs: slices.Clone(a.Edges(i)), weights: slices.Clone(a.Weights(i)), first: first, last: last})
	}
	return out, stats, nil
}

func sameRecords(a, b []adjRecord) bool {
	return slices.EqualFunc(a, b, func(x, y adjRecord) bool {
		return x.v == y.v && x.first == y.first && x.last == y.last &&
			slices.Equal(x.nbrs, y.nbrs) && slices.Equal(x.weights, y.weights) &&
			(len(x.nbrs) == 0 || (x.weights == nil) == (y.weights == nil))
	})
}

// checkParity compares every load form with the reference on whole
// intervals and on a sparse sample of each, device page counts included: the
// fills on both sides at both weightings, and LoadOutEdges beside the
// unweighted out-edge fill.
func checkParity(t *testing.T, name string, g *Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for iv, interval := range g.Intervals() {
		var all, sample []uint32
		for v := interval.Lo; v < interval.Hi; v++ {
			all = append(all, v)
			if rng.Intn(4) == 0 {
				sample = append(sample, v)
			}
		}
		for _, verts := range [][]uint32{all, sample, all[len(all)-1:]} {
			for side := uint8(0); side < 2; side++ {
				for _, weighted := range []bool{false, true} {
					for _, visitor := range []bool{false, true} {
						if visitor && (side != 0 || weighted) {
							continue
						}
						form := fmt.Sprintf("%s iv %d side %d weighted %v visitor %v", name, iv, side, weighted, visitor)
						before := g.dev.Stats()
						want, wantStats, err := refLoadEdges(g, side, weighted, iv, verts)
						if err != nil {
							t.Fatal(err)
						}
						refIO := g.dev.Stats().Sub(before)
						before = g.dev.Stats()
						got, gotStats, err := loadAll(g, side, weighted, visitor, iv, verts)
						if err != nil {
							t.Fatal(err)
						}
						if io := g.dev.Stats().Sub(before); io != refIO {
							t.Fatalf("%s: device saw %+v, reference %+v", form, io, refIO)
						}
						if visitor {
							for i := range got {
								got[i].first, got[i].last = want[i].first, want[i].last
							}
						}
						if !sameRecords(got, want) {
							t.Fatalf("%s, %d vertices:\n got %+v\nwant %+v", form, len(verts), got, want)
						}
						if gotStats.RowPtrPages != wantStats.RowPtrPages || gotStats.ColIdxPages != wantStats.ColIdxPages ||
							gotStats.ValPages != wantStats.ValPages || !slices.Equal(gotStats.PageUtils, wantStats.PageUtils) {
							t.Fatalf("%s: stats %+v, reference %+v", form, gotStats, wantStats)
						}
					}
				}
			}
		}
	}
}

// hubEdges is a graph with zero-degree vertices between populated ones and a
// hub whose out- and in-lists each span at least three 256-byte colidx pages.
func hubEdges() []graphio.WeightedEdge {
	var edges []graphio.WeightedEdge
	add := func(s, d uint32) {
		edges = append(edges, graphio.WeightedEdge{Src: s, Dst: d, Weight: 1000*s + d + 1})
	}
	for d := uint32(0); d < 200; d++ { // 200 edges × 4 B = 800 B ≥ 3 pages
		add(7, 20+d)
		add(20+d, 7)
	}
	add(1, 2)
	add(2, 9) // 0, 3..6, 8, 10..19 have no out-edges; the tail has no in-edges but the hub's
	add(9, 1)
	add(230, 3)
	return edges
}

func TestArenaParityWithMapBasedLoad(t *testing.T) {
	edges := hubEdges()
	plain := make([]graphio.Edge, len(edges))
	for i, e := range edges {
		plain[i] = graphio.Edge{Src: e.Src, Dst: e.Dst}
	}
	// A budget small enough for several intervals, large enough that the
	// hub's interval holds other vertices too.
	opts := BuildOptions{IntervalBudget: 80 * MsgBytes}

	unweighted, err := Build(testDev(t), "u", plain, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(unweighted.Intervals()) < 3 {
		t.Fatalf("only %d intervals", len(unweighted.Intervals()))
	}
	var hub Arena
	hub.Reset(1, false)
	_, err = unweighted.FillOutEdges(unweighted.IntervalOf(7), []uint32{7}, nil, &hub)
	if first, last := hub.PageRange(0); err != nil || last-first+1 < 3 {
		t.Fatalf("the hub's list spans %d colidx pages (err %v); want at least 3", last-first+1, err)
	}
	checkParity(t, "unweighted", unweighted)

	weighted, err := BuildWeighted(testDev(t), "w", edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "weighted", weighted)

	// A delta overlay read at a pinned epoch: the snapshot sees the first
	// round of mutations and not the second; the live graph sees both.
	for _, g := range []*Graph{unweighted, weighted} {
		for _, m := range []Mutation{
			{Src: 7, Dst: 3, Weight: 77}, {Del: true, Src: 7, Dst: 25}, {Src: 0, Dst: 7, Weight: 5},
			{Del: true, Src: 1, Dst: 2}, {Src: 12, Dst: 13, Weight: 9},
		} {
			if err := g.ApplyMutations([]Mutation{m}, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		snap := g.Snapshot()
		for _, m := range []Mutation{{Src: 7, Dst: 4, Weight: 1}, {Del: true, Src: 7, Dst: 3}, {Src: 3, Dst: 7, Weight: 2}} {
			if err := g.ApplyMutations([]Mutation{m}, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		checkParity(t, g.Name()+" pinned", snap.Graph())
		checkParity(t, g.Name()+" live", g)
		var pinned, live []uint32
		iv := g.IntervalOf(7)
		if _, err := snap.Graph().LoadOutEdges(iv, []uint32{7}, func(_ uint32, nbrs []uint32) { pinned = slices.Clone(nbrs) }); err != nil {
			t.Fatal(err)
		}
		if _, err := g.LoadOutEdges(iv, []uint32{7}, func(_ uint32, nbrs []uint32) { live = slices.Clone(nbrs) }); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(pinned, 3) || slices.Contains(pinned, 4) || slices.Contains(live, 3) || !slices.Contains(live, 4) {
			t.Fatalf("%s: the pinned view and the live view do not differ as the epochs say:\npinned %v\nlive   %v", g.Name(), pinned, live)
		}
		snap.Release()
	}
}

// One arena filled interval after interval at caller-chosen positions — the
// engine's use — holds what a fresh arena per interval would.
func TestArenaFillAtPositions(t *testing.T) {
	edges, err := gen.RMAT(gen.DefaultRMAT(9, 6, 4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(testDev(t), "g", edges, BuildOptions{IntervalBudget: 600})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var a Arena
	for round := 0; round < 3; round++ { // reuse across "batches"
		var verts []uint32
		for v := uint32(0); v < g.NumVertices(); v++ {
			if rng.Intn(3) == 0 {
				verts = append(verts, v)
			}
		}
		// Positions are a permutation, so fills land out of slab order.
		pos := make([]int32, len(verts))
		for i, p := range rng.Perm(len(verts)) {
			pos[i] = int32(p)
		}
		a.Reset(len(verts), false)
		for lo := 0; lo < len(verts); {
			iv := g.IntervalOf(verts[lo])
			hi := lo
			for hi < len(verts) && verts[hi] < g.Intervals()[iv].Hi {
				hi++
			}
			if _, err := g.FillOutEdges(iv, verts[lo:hi], pos[lo:hi], &a); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		for i, v := range verts {
			want, _, err := refLoadEdges(g, 0, false, g.IntervalOf(v), []uint32{v})
			if err != nil {
				t.Fatal(err)
			}
			p := int(pos[i])
			first, last := a.PageRange(p)
			if !slices.Equal(a.Edges(p), want[0].nbrs) || a.Degree(p) != len(want[0].nbrs) || first != want[0].first || last != want[0].last {
				t.Fatalf("round %d: vertex %d at position %d: %v pages [%d,%d], want %v pages [%d,%d]",
					round, v, p, a.Edges(p), first, last, want[0].nbrs, want[0].first, want[0].last)
			}
			if cap(a.Edges(p)) != len(a.Edges(p)) {
				t.Fatalf("position %d's list has spare capacity into its neighbour's", p)
			}
		}
	}
}

// The forward-cursor decode depends on strictly ascending input; both edge
// directions reject anything else with ErrVertsNotAscending, before any read.
func TestLoadRejectsUnsortedAndDuplicateVerts(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noVisit := func(uint32, []uint32) { t.Error("a rejected load visited a vertex") }
	for name, verts := range map[string][]uint32{"descending": {2, 1}, "duplicate": {1, 1}, "late duplicate": {0, 3, 5, 5}} {
		before := dev.Stats()
		if _, err := g.LoadOutEdges(0, verts, noVisit); !errors.Is(err, ErrVertsNotAscending) {
			t.Errorf("out-edges, %s: err = %v, want ErrVertsNotAscending", name, err)
		}
		var a Arena
		a.Reset(len(verts), false)
		if _, err := g.FillInEdges(0, verts, nil, &a); !errors.Is(err, ErrVertsNotAscending) {
			t.Errorf("in-edges, %s: err = %v, want ErrVertsNotAscending", name, err)
		}
		if _, err := g.FillOutEdges(0, verts, nil, &a); !errors.Is(err, ErrVertsNotAscending) {
			t.Errorf("fill, %s: err = %v, want ErrVertsNotAscending", name, err)
		}
		if io := dev.Stats().Sub(before); io.PagesRead != 0 {
			t.Errorf("%s: %d pages read before the input was rejected", name, io.PagesRead)
		}
	}
	if _, err := g.LoadOutEdges(0, []uint32{0, 1, 5}, func(uint32, []uint32) {}); err != nil {
		t.Fatalf("ascending input rejected: %v", err)
	}
}

// A lane-strided batch whose vertices' lanes straddle page boundaries: 24
// lanes × 4 B = 96 B per vertex on 256 B pages, so every third vertex does.
func TestValueBatchLanesStraddlePages(t *testing.T) {
	dev := testDev(t)
	const n, lanes = 64, 24
	slot := func(v uint32, lane int) uint32 { return v*1000 + uint32(lane) }
	vv, err := CreateValuesLanesFunc(dev, "vals", n, lanes, slot)
	if err != nil {
		t.Fatal(err)
	}
	ps := dev.PageSize()
	verts := []uint32{2, 5, 6, 10, 13, 30, 63}
	straddlers := 0
	for _, v := range verts {
		if int(v)*lanes*4/ps != (int(v+1)*lanes*4-1)/ps {
			straddlers++
		}
	}
	if straddlers < 3 {
		t.Fatalf("only %d of the chosen vertices straddle a page", straddlers)
	}
	var cover []int
	for _, v := range verts {
		cover = appendCover(cover, int64(v)*lanes*4, int64(v+1)*lanes*4, int64(ps))
	}
	var b ValueBatch
	for round := uint32(0); round < 2; round++ { // the second load reuses the buffers
		pages, err := vv.LoadBatch(&b, verts)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(cover); pages != want {
			t.Fatalf("loaded %d pages, the page arithmetic says %d", pages, want)
		}
		for _, v := range verts {
			for lane := 0; lane < lanes; lane++ {
				if got, want := b.GetLane(v, lane), slot(v, lane)+round; got != want {
					t.Fatalf("round %d: slot (%d,%d) = %d, want %d", round, v, lane, got, want)
				}
				b.SetLane(v, lane, slot(v, lane)+round+1)
			}
		}
		if written, err := b.Flush(); err != nil || written != pages {
			t.Fatalf("flushed %d pages (err %v), loaded %d", written, err, pages)
		}
	}
	all, err := vv.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < n; v++ {
		bump := uint32(0)
		if slices.Contains(verts, v) {
			bump = 2
		}
		for lane := 0; lane < lanes; lane++ {
			if got, want := all[int(v)*lanes+lane], slot(v, lane)+bump; got != want {
				t.Fatalf("after two rounds slot (%d,%d) = %d, want %d", v, lane, got, want)
			}
		}
	}
	if _, err := vv.LoadBatch(&b, []uint32{5, 2}); !errors.Is(err, ErrVertsNotAscending) {
		t.Fatalf("descending value vertices: err = %v, want ErrVertsNotAscending", err)
	}
}
