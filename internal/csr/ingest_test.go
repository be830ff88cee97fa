package csr

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
	"multilogvc/internal/wal"
)

// oracle is a brute-force multiset adjacency: the reference the ingest
// plane is checked against. Mutations apply with the delta overlay's
// semantics — an add appends an instance, a del removes one matching
// instance if present.
type oracle map[graphio.Edge]int

func (o oracle) apply(m Mutation) {
	e := graphio.Edge{Src: m.Src, Dst: m.Dst}
	if !m.Del {
		o[e]++
		return
	}
	if o[e] > 0 {
		o[e]--
		if o[e] == 0 {
			delete(o, e)
		}
	}
}

func (o oracle) edges() []graphio.Edge {
	var out []graphio.Edge
	for e, c := range o {
		for i := 0; i < c; i++ {
			out = append(out, e)
		}
	}
	graphio.SortEdges(out)
	return out
}

func checkOracle(t *testing.T, g *Graph, o oracle, ctx string) {
	t.Helper()
	got, err := g.CurrentEdges()
	if err != nil {
		t.Fatalf("%s: CurrentEdges: %v", ctx, err)
	}
	want := o.edges()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d\ngot:  %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

func randMut(rng *rand.Rand, n uint32) Mutation {
	return Mutation{
		Del: rng.Intn(2) == 1,
		Src: uint32(rng.Intn(int(n))),
		Dst: uint32(rng.Intn(int(n))),
	}
}

// TestIngestOracleProperty drives random mutation batches against the
// oracle across the full lifecycle: overlay reads, snapshot pin/release,
// threshold and explicit merges, and — on a disk-backed device — a
// simulated crash (reopen without Close) with WAL replay. The durable
// graph must match the oracle at every probe.
func TestIngestOracleProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		open := func() (*ssd.Device, *Graph) {
			dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
			g, err := OpenIngest(dev, "g", IngestOptions{WAL: true, MergeThreshold: 1 << 30})
			if err != nil {
				t.Fatalf("seed %d: OpenIngest: %v", seed, err)
			}
			return dev, g
		}
		base := []graphio.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
		{
			dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
			if _, err := Build(dev, "g", base, BuildOptions{NumVertices: 8, IntervalBudget: 48}); err != nil {
				t.Fatalf("seed %d: build: %v", seed, err)
			}
		}
		o := oracle{}
		for _, e := range base {
			o[e]++
		}
		_, g := open()
		for step := 0; step < 30; step++ {
			ms := make([]Mutation, 1+rng.Intn(4))
			for i := range ms {
				ms[i] = randMut(rng, 8)
			}
			if err := g.ApplyMutations(ms, 1<<30); err != nil {
				t.Fatalf("seed %d step %d: apply: %v", seed, step, err)
			}
			for _, m := range ms {
				o.apply(m)
			}
			switch rng.Intn(6) {
			case 0:
				if err := g.MergeInterval(0); err != nil {
					t.Fatalf("seed %d step %d: merge: %v", seed, step, err)
				}
				if g.PendingUpdates() != 0 {
					t.Fatalf("seed %d step %d: pending after merge", seed, step)
				}
			case 1:
				snap := g.Snapshot()
				checkOracle(t, snap.Graph(), o, "snapshot view")
				snap.Release()
			case 2:
				// Crash: abandon the graph (no CloseIngest) and reopen.
				// Every acknowledged mutation must replay.
				_, g = open()
			}
			checkOracle(t, g, o, "live view")
		}
		checkOracle(t, g, o, "final")
		// One more crash/reopen, then a merge, then a cold plain Open.
		_, g = open()
		checkOracle(t, g, o, "after final replay")
		if err := g.MergeInterval(0); err != nil {
			t.Fatalf("seed %d: final merge: %v", seed, err)
		}
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
		g2, err := Open(dev, "g")
		if err != nil {
			t.Fatalf("seed %d: cold open: %v", seed, err)
		}
		checkOracle(t, g2, o, "cold open after merge")
	}
}

// TestSnapshotIsolation pins a snapshot, keeps mutating, and checks the
// snapshot's reads are frozen at its epoch while the live view advances.
func TestSnapshotIsolation(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 3}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	defer snap.Release()
	if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 4}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Del: true, Src: 0, Dst: 1}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	degSnap, err := snap.Graph().OutDegreeSlow(0)
	if err != nil || degSnap != 2 { // base {1} + pinned add of 3
		t.Fatalf("snapshot degree = %d (err %v), want 2", degSnap, err)
	}
	degLive, err := g.OutDegreeSlow(0)
	if err != nil || degLive != 2 { // {3, 4} after removing 1
		t.Fatalf("live degree = %d (err %v), want 2", degLive, err)
	}
	var snapNbrs []uint32
	_, err = snap.Graph().LoadOutEdges(g.IntervalOf(0), []uint32{0}, func(_ uint32, nbrs []uint32) {
		snapNbrs = append([]uint32(nil), nbrs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snapNbrs) != 2 || snapNbrs[0] != 1 || snapNbrs[1] != 3 {
		t.Fatalf("snapshot neighbors = %v, want [1 3]", snapNbrs)
	}
	if snap.Epoch() == g.Epoch() {
		t.Fatalf("live epoch did not advance past pinned %d", snap.Epoch())
	}
}

// TestSnapshotDefersMerge pins that a merge cannot fold epochs a live
// snapshot still distinguishes: while pinned the merge is a no-op, and
// after release it folds.
func TestSnapshotDefersMerge(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if err := g.ApplyMutations([]Mutation{{Src: 4, Dst: 5}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := g.MergeInterval(0); err != nil {
		t.Fatal(err)
	}
	if g.PendingUpdates() == 0 {
		t.Fatal("merge folded under a pinned snapshot")
	}
	snap.Release()
	if err := g.MergeInterval(0); err != nil {
		t.Fatal(err)
	}
	if g.PendingUpdates() != 0 {
		t.Fatalf("pending after post-release merge = %d", g.PendingUpdates())
	}
}

// TestIngestBackpressure pins the bounded-memory contract: past
// MaxPending, ApplyMutations fails with ErrIngestBackpressure and the
// batch is not applied; a merge drains the buffer and admits again.
func TestIngestBackpressure(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if err != nil {
		t.Fatal(err)
	}
	g.ing.opts.MaxPending = 8 // four mutations' worth of side-entries
	for i := 0; i < 4; i++ {
		if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: uint32(i % 6)}}, 1<<30); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	err = g.ApplyMutations([]Mutation{{Src: 0, Dst: 5}}, 1<<30)
	if !errors.Is(err, ErrIngestBackpressure) {
		t.Fatalf("over-cap add: %v", err)
	}
	if g.PendingUpdates() != 8 {
		t.Fatalf("rejected batch leaked into the buffer: pending=%d", g.PendingUpdates())
	}
	if err := g.MergeInterval(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 5}}, 1<<30); err != nil {
		t.Fatalf("post-merge add: %v", err)
	}
}

// TestSameEpochAddDelCancels audits the satellite fix: deleting an edge
// whose add is still buffered cancels the buffered add physically — the
// buffer shrinks back — rather than recording both ops. And with a
// pinned snapshot observing the add, cancellation must NOT happen (the
// delete is recorded instead) so the snapshot still sees the edge.
func TestSameEpochAddDelCancels(t *testing.T) {
	dev := testDev(t)
	g, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 3}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	if p := g.PendingUpdates(); p != 2 {
		t.Fatalf("pending after add = %d", p)
	}
	if err := g.ApplyMutations([]Mutation{{Del: true, Src: 0, Dst: 3}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	if p := g.PendingUpdates(); p != 0 {
		t.Fatalf("del of same-epoch add did not cancel: pending = %d", p)
	}

	// Same dance under a pinned snapshot: no physical cancellation.
	if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 4}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	defer snap.Release()
	if err := g.ApplyMutations([]Mutation{{Del: true, Src: 0, Dst: 4}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	if p := g.PendingUpdates(); p != 4 {
		t.Fatalf("pinned add was cancelled: pending = %d", p)
	}
	deg, err := snap.Graph().OutDegreeSlow(0)
	if err != nil || deg != 2 {
		t.Fatalf("snapshot lost its pinned add: degree = %d (err %v)", deg, err)
	}
	degLive, err := g.OutDegreeSlow(0)
	if err != nil || degLive != 1 {
		t.Fatalf("live degree = %d (err %v), want 1", degLive, err)
	}
}

// TestCrashMidMergeRecovery sweeps an injected device failure across
// every IO of the merge and, for each crash point, reopens from the
// on-disk state: the recovered graph must contain exactly the
// acknowledged mutations, with their weights on a weighted graph — before
// the manifest commit because the WAL replays them, after it because the
// redo completes the merge.
func TestCrashMidMergeRecovery(t *testing.T) {
	for _, tc := range []struct {
		name     string
		weighted bool
		budget   int64
		base     []graphio.WeightedEdge
		muts     []Mutation
	}{
		{
			name:   "unweighted",
			budget: 48,
			base:   []graphio.WeightedEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
			muts: []Mutation{
				{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Del: true, Src: 0, Dst: 1},
				{Src: 5, Dst: 0}, {Src: 3, Dst: 4}, // duplicate instance on purpose
			},
		},
		{
			// Three intervals, the last with no base out-edges: an add there
			// must keep its weight through the merge.
			name:     "weighted",
			weighted: true,
			budget:   12,
			base: []graphio.WeightedEdge{
				{Src: 0, Dst: 1, Weight: 10}, {Src: 1, Dst: 2, Weight: 20}, {Src: 2, Dst: 3, Weight: 30},
			},
			muts: []Mutation{
				{Src: 3, Dst: 4, Weight: 34}, {Src: 4, Dst: 5, Weight: 45}, {Del: true, Src: 0, Dst: 1},
				{Src: 5, Dst: 0, Weight: 50}, {Src: 3, Dst: 4, Weight: 43}, // duplicate, another weight
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The oracle: the edge multiset with weights, sorted. An add appends
			// an instance, a del removes the newest matching one.
			want := slices.Clone(tc.base)
			for _, m := range tc.muts {
				e := graphio.WeightedEdge{Src: m.Src, Dst: m.Dst, Weight: m.Weight}
				if !m.Del {
					want = append(want, e)
					continue
				}
				for i := len(want) - 1; i >= 0; i-- {
					if want[i].Src == e.Src && want[i].Dst == e.Dst {
						want = slices.Delete(want, i, i+1)
						break
					}
				}
			}
			slices.SortFunc(want, cmpWeighted)
			check := func(g *Graph, failAt int64, ctx string) {
				t.Helper()
				var got []graphio.WeightedEdge
				for iv, interval := range g.Intervals() {
					var verts []uint32
					for v := interval.Lo; v < interval.Hi; v++ {
						verts = append(verts, v)
					}
					if _, err := g.LoadOutEdgesFull(iv, verts, func(v uint32, nbrs, weights []uint32, _, _ int32) {
						for i, nb := range nbrs {
							e := graphio.WeightedEdge{Src: v, Dst: nb}
							if weights != nil {
								e.Weight = weights[i]
							}
							got = append(got, e)
						}
					}); err != nil {
						t.Fatalf("failAt %d: %s: %v", failAt, ctx, err)
					}
				}
				slices.SortFunc(got, cmpWeighted)
				if !slices.Equal(got, want) {
					t.Fatalf("failAt %d: %s: edges %v, want %v", failAt, ctx, got, want)
				}
			}
			completed := false
			for failAt := int64(0); failAt < 400 && !completed; failAt++ {
				dir := t.TempDir()
				{
					dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
					opts := BuildOptions{NumVertices: 8, IntervalBudget: tc.budget}
					var err error
					if tc.weighted {
						_, err = BuildWeighted(dev, "g", tc.base, opts)
					} else {
						_, err = Build(dev, "g", graphio.Strip(tc.base), opts)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
				g, err := OpenIngest(dev, "g", IngestOptions{WAL: true, MergeThreshold: 1 << 30})
				if err != nil {
					t.Fatalf("failAt %d: OpenIngest: %v", failAt, err)
				}
				if err := g.ApplyMutations(tc.muts, 1<<30); err != nil {
					t.Fatalf("failAt %d: apply: %v", failAt, err)
				}
				dev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: failAt})
				mergeErr := g.MergeInterval(0)
				if mergeErr == nil {
					completed = true // the injection point is past the whole merge
				}
				// Crash: drop the process state, reopen from disk with a healthy
				// fresh device. Acknowledged mutations must all be there.
				dev2 := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
				g2, err := OpenIngest(dev2, "g", IngestOptions{WAL: true, MergeThreshold: 1 << 30})
				if err != nil {
					t.Fatalf("failAt %d: reopen after mergeErr=%v: %v", failAt, mergeErr, err)
				}
				check(g2, failAt, "recovered")
				// The recovered graph keeps working: merge and re-verify.
				if err := g2.MergeInterval(0); err != nil {
					t.Fatalf("failAt %d: post-recovery merge: %v", failAt, err)
				}
				check(g2, failAt, "post-recovery merge")
			}
			if !completed {
				t.Fatal("sweep never reached an uninjected merge; raise the bound")
			}
		})
	}
}

func cmpWeighted(a, b graphio.WeightedEdge) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Weight, b.Weight))
}

// TestMergeFailureIsStickyUntilReopen pins the post-commit-point
// contract: when the redo fails mid-way the in-memory graph refuses
// reads and writes (instead of serving state that may not match the
// half-applied device), and a reopen recovers.
func TestMergeFailureIsStickyUntilReopen(t *testing.T) {
	dir := t.TempDir()
	{
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
		if _, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12}); err != nil {
			t.Fatal(err)
		}
	}
	dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
	g, err := OpenIngest(dev, "g", IngestOptions{WAL: true, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Find a failure point that lands after the manifest commit: sweep
	// until the merge error reports the sticky wrapper.
	var stuck bool
	for failAt := int64(0); failAt < 400; failAt++ {
		if err := g.ApplyMutations([]Mutation{{Src: 4, Dst: 5}}, 1<<30); err != nil {
			t.Fatalf("failAt %d: add: %v", failAt, err)
		}
		dev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: failAt})
		mergeErr := g.MergeInterval(0)
		dev.SetFaults(ssd.FaultPlan{})
		if mergeErr == nil {
			g, err = OpenIngest(ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir}), "g",
				IngestOptions{WAL: true, MergeThreshold: 1 << 30})
			if err != nil {
				t.Fatalf("failAt %d: reopen: %v", failAt, err)
			}
			continue
		}
		if !errors.Is(mergeErr, ssd.ErrInjected) {
			t.Fatalf("failAt %d: unexpected merge error: %v", failAt, mergeErr)
		}
		if g.ing.failed == nil {
			// Pre-commit failure: state intact, mutations must still work.
			if err := g.ApplyMutations([]Mutation{{Del: true, Src: 4, Dst: 5}}, 1<<30); err != nil {
				t.Fatalf("failAt %d: post-precommit-failure del: %v", failAt, err)
			}
			continue
		}
		stuck = true
		if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 1}}, 1<<30); err == nil {
			t.Fatal("mutation accepted on a failed graph")
		}
		if _, err := g.OutDegreeSlow(0); err == nil {
			t.Fatal("read served on a failed graph")
		}
		break
	}
	if !stuck {
		t.Skip("no post-commit failure point reached in sweep")
	}
	g2, err := OpenIngest(ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir}), "g",
		IngestOptions{WAL: true, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatalf("reopen after sticky failure: %v", err)
	}
	if _, err := g2.OutDegreeSlow(0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

// TestWeightedIngestMergeRoundTrip pins that merges preserve weights the
// delta carried, across a crash/reopen on a weighted graph.
func TestWeightedIngestMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wedges := []graphio.WeightedEdge{
		{Src: 0, Dst: 1, Weight: 10}, {Src: 1, Dst: 2, Weight: 20}, {Src: 2, Dst: 0, Weight: 30},
	}
	{
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
		if _, err := BuildWeighted(dev, "g", wedges, BuildOptions{NumVertices: 4, IntervalBudget: 48}); err != nil {
			t.Fatal(err)
		}
	}
	dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
	g, err := OpenIngest(dev, "g", IngestOptions{WAL: true, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Src: 0, Dst: 3, Weight: 77}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	check := func(g *Graph, ctx string) {
		t.Helper()
		var ws map[uint32]uint32
		_, err := g.LoadOutEdgesFull(g.IntervalOf(0), []uint32{0}, func(_ uint32, nbrs, weights []uint32, _, _ int32) {
			ws = make(map[uint32]uint32, len(nbrs))
			for i, nb := range nbrs {
				ws[nb] = weights[i]
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if ws[1] != 10 || ws[3] != 77 {
			t.Fatalf("%s: weights = %v, want 1:10 3:77", ctx, ws)
		}
	}
	check(g, "overlay")
	// Crash, replay, merge, cold open: the weight must survive all three.
	dev2 := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
	g2, err := OpenIngest(dev2, "g", IngestOptions{WAL: true, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	check(g2, "replayed")
	if err := g2.MergeInterval(0); err != nil {
		t.Fatal(err)
	}
	check(g2, "merged")
	g3, err := Open(ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir}), "g")
	if err != nil {
		t.Fatal(err)
	}
	check(g3, "cold")
}

// TestIngestStats sanity-checks the stats surface end to end.
func TestIngestStats(t *testing.T) {
	dir := t.TempDir()
	{
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
		if _, err := Build(dev, "g", paperEdges(), BuildOptions{IntervalBudget: 3 * 12}); err != nil {
			t.Fatal(err)
		}
	}
	dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
	g, err := OpenIngest(dev, "g", IngestOptions{WAL: true, MaxPending: 100, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Src: 4, Dst: 5}}, 1<<30); err != nil {
		t.Fatal(err)
	}
	st := g.IngestStats()
	if !st.Durable || st.Pending != 2 || st.Epoch != 1 || st.WAL.Appends != 1 {
		t.Fatalf("stats after one add: %+v", st)
	}
	snap := g.Snapshot()
	if st := g.IngestStats(); st.Pins != 1 {
		t.Fatalf("pins = %d", st.Pins)
	}
	snap.Release()
	if err := g.MergeInterval(0); err != nil {
		t.Fatal(err)
	}
	st = g.IngestStats()
	if st.Pending != 0 || st.Merges != 1 || st.WAL.Truncates != 1 {
		t.Fatalf("stats after merge: %+v", st)
	}
	if err := g.CloseIngest(); err != nil {
		t.Fatal(err)
	}
}

// FuzzIngestManifest feeds the merge's redo checksum-valid manifests with
// arbitrary payloads, beside a real shadow file: recovery must return a
// value or an error, never panic.
func FuzzIngestManifest(f *testing.F) {
	dev := manifestFuzzDevice(f)
	man, ok, err := readIngestManifest(dev, ingestManifestName("g"))
	if err != nil || !ok {
		f.Fatalf("no manifest to seed from (ok %v): %v", ok, err)
	}
	seed, err := json.Marshal(man)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"shadow_len":-1,"meta":{}}`))
	f.Add([]byte(`{"shadow_len":8,"segments":[-8,16],"meta":{"intervals":[{"Lo":0,"Hi":1}]}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		dev := manifestFuzzDevice(t)
		frame := binary.LittleEndian.AppendUint32([]byte(ingestManifestMagic), uint32(len(payload)))
		frame = append(frame, payload...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, ingestCRC))
		if err := rewriteDeviceFile(dev, ingestManifestName("g"), frame); err != nil {
			t.Fatal(err)
		}
		_ = recoverIngest(dev, "g")
	})
}

// manifestFuzzDevice returns a RAM device holding a small weighted graph
// whose merge has committed its shadow and manifest but not yet redone them.
func manifestFuzzDevice(tb testing.TB) *ssd.Device {
	tb.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
	base := []graphio.WeightedEdge{{Src: 0, Dst: 1, Weight: 10}, {Src: 1, Dst: 2, Weight: 20}, {Src: 2, Dst: 3, Weight: 30}}
	g, err := BuildWeighted(dev, "g", base, BuildOptions{NumVertices: 8, IntervalBudget: 12})
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.ApplyMutations([]Mutation{{Src: 4, Dst: 5, Weight: 45}}, 1<<30); err != nil {
		tb.Fatal(err)
	}
	if err := g.writeShadowAndManifest(g.Epoch()); err != nil {
		tb.Fatal(err)
	}
	return dev
}

// FuzzApply feeds random local and replicated batches to one volatile
// graph — duplicate and gapped seqs, out-of-range vertices, unknown
// opcodes, a pending cap and merge thresholds low enough to fold. Nothing
// may panic, every rejection must be the classified error the batch
// earns, and AppliedSeq must equal the last accepted seq, with the graph
// holding exactly the accepted mutations.
//
// Each batch is a header byte (bit 0: replicated; bits 1-3: length - 1;
// bits 4-5: merge threshold; bits 6-7: first seq relative to AppliedSeq)
// followed by three bytes a record: opcode and gap bits, source,
// destination.
func FuzzApply(f *testing.F) {
	f.Add([]byte{0x02, 1, 0, 1, 1, 1, 2})
	f.Add([]byte{0x43, 1, 0, 1, 1, 1, 2, 0x01, 2, 3, 4})
	f.Add([]byte{0x41, 1, 0, 1, 0x05, 1, 2, 0x00, 2, 9})
	f.Add([]byte{0x31, 3, 0, 1, 0x80, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
		base := []graphio.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
		if _, err := Build(dev, "g", base, BuildOptions{NumVertices: n, IntervalBudget: 48}); err != nil {
			t.Fatal(err)
		}
		g, err := OpenIngest(dev, "g", IngestOptions{MaxPending: 24})
		if err != nil {
			t.Fatal(err)
		}
		o := oracle{}
		for _, e := range base {
			o[e]++
		}
		for len(data) > 0 {
			hdr := data[0]
			k := min(1+int(hdr>>1&7), (len(data)-1)/3)
			body := data[1 : 1+3*k]
			data = data[1+3*k:]
			replicated, threshold := hdr&1 == 1, []int{0, 1, 6, 1 << 30}[hdr>>4&3]
			applied := g.AppliedSeq()
			seq := applied + 1 - min(applied, uint64(hdr>>6)) // a dup, the next seq, or a gap
			if hdr>>6 == 3 {
				seq = applied + 2
			}
			recs := make([]wal.Record, k)
			for i := range recs {
				b := body[3*i:]
				recs[i] = wal.Record{Op: b[0] & 3, Src: uint32(b[1] % (n + 2)), Dst: uint32(b[2] % (n + 2)), Seq: seq}
				seq += 1 + uint64(b[0]>>2&1) // bit 2 opens a gap after this record
			}

			// What the batch earns: validation first, then (replicated) the
			// duplicate prefix and contiguity of the rest.
			var want error
			for i, r := range recs {
				if !replicated {
					recs[i].Op = wal.OpAdd + r.Op&1 // ApplyMutations knows add and del only
				}
				switch {
				case want != nil:
				case r.Src >= n || r.Dst >= n:
					want = ErrVertexOutOfRange
				case recs[i].Op != wal.OpAdd && recs[i].Op != wal.OpDel:
					want = wal.ErrBadShipFrame
				}
			}
			fresh := recs
			if replicated {
				for len(fresh) > 0 && fresh[0].Seq <= applied {
					fresh = fresh[1:]
				}
				for i, r := range fresh {
					if want == nil && r.Seq != applied+1+uint64(i) {
						want = wal.ErrSeqGap
					}
				}
			}

			if replicated {
				var got int
				got, err = g.ApplyReplicated(slices.Clone(recs), threshold)
				if err == nil && got != len(fresh) {
					t.Fatalf("ApplyReplicated applied %d of %d fresh records", got, len(fresh))
				}
			} else {
				ms := make([]Mutation, k)
				for i, r := range recs {
					ms[i] = Mutation{Del: r.Op == wal.OpDel, Src: r.Src, Dst: r.Dst}
				}
				err = g.ApplyMutations(ms, threshold)
			}
			switch {
			case want != nil && !errors.Is(err, want):
				t.Fatalf("batch %v: err = %v, want %v", recs, err, want)
			case want == nil && err != nil && !errors.Is(err, ErrIngestBackpressure):
				t.Fatalf("batch %v: unclassified rejection: %v", recs, err)
			}
			if err != nil {
				if a := g.AppliedSeq(); a != applied {
					t.Fatalf("rejected batch moved AppliedSeq %d -> %d", applied, a)
				}
				continue
			}
			for _, r := range fresh {
				o.apply(Mutation{Del: r.Op == wal.OpDel, Src: r.Src, Dst: r.Dst})
			}
			if a, last := g.AppliedSeq(), applied+uint64(len(fresh)); a != last {
				t.Fatalf("AppliedSeq = %d after accepting through seq %d", a, last)
			}
		}
		checkOracle(t, g, o, "after the batches")
	})
}
