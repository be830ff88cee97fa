package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
	"multilogvc/internal/wal"
)

// Replication failover chaos: a primary and a warm-standby follower,
// each on its own disk-backed device (geometry chosen independently —
// replication ships logical WAL frames, never pages), with the primary
// killed at the worst possible moments. The soak drives the same
// mutation-stream oracle as the ingest chaos, extended with a second
// node: sequence numbers are identity, so stream[s-1] IS the mutation
// every node knows as seq s, and every node's edge multiset must equal
// the base graph plus the stream prefix up to its own AppliedSeq.

// FailoverChaosOutcome summarizes one replication chaos case.
type FailoverChaosOutcome struct {
	Seed            int64
	Schedule        string
	Acked           int  // mutations acknowledged by the primary
	Shipped         int  // records the follower applied via replication
	PrimaryCrashes  int  // primary kill -9 reopens
	FollowerCrashes int  // follower kill -9 reopens
	Promoted        bool // the finale promoted the follower to writable
	// Faults are the classified sentinel families hit along the way
	// ("replica_gap" is the terminal one: the primary's merge checkpoint
	// truncated frames the follower still needed, so it must re-seed).
	Faults []string
}

// FailoverChaosCase runs one randomized replication failover case over
// two disk-backed devices. A WAL-backed primary ingests random mutation
// batches while frames ship to a follower through the real wire format
// (EncodeFrames → TailDecoder) in random chunk sizes, cut mid-stream at
// random; either node is killed (device abandoned, reopened cold) at
// random points — mid-batch, mid-merge, mid-ship. The invariant is the
// replication contract: every node's recovered edge multiset is exactly
// base + stream[:AppliedSeq] — never a gap, never a duplicate, never a
// rewound cursor — and at the end the follower is promoted, takes local
// writes that extend the same sequence stream, and answers BFS
// bit-identically to a clean single-node graph built from the oracle.
// Any failure must be a classified sentinel.
func FailoverChaosCase(seed int64, primaryDir, followerDir string) (FailoverChaosOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	out := FailoverChaosOutcome{Seed: seed}
	fail := func(format string, args ...interface{}) (FailoverChaosOutcome, error) {
		return out, fmt.Errorf("failover seed %d [%s]: %s", seed, out.Schedule, fmt.Sprintf(format, args...))
	}

	// Random base graph, shared by both nodes (a follower is seeded from
	// a copy of the primary's data).
	var edges []graphio.Edge
	var err error
	if rng.Intn(2) == 0 {
		edges, err = gen.Uniform(uint32(20+rng.Intn(80)), 60+rng.Intn(200), rng.Int63(), false)
	} else {
		edges, err = gen.Grid(3+rng.Intn(6), 3+rng.Intn(6))
	}
	if err != nil {
		return out, fmt.Errorf("gen: %w", err)
	}
	n := graphio.NumVertices(edges)
	if n < 2 {
		return out, nil
	}

	// Independent geometry per node: frames are logical, so a follower
	// need not share the primary's page size, channel count, or interval
	// layout.
	pCfg := ssd.Config{PageSize: 128 << rng.Intn(3), Channels: 1 + rng.Intn(4), Dir: primaryDir}
	fCfg := ssd.Config{PageSize: 128 << rng.Intn(3), Channels: 1 + rng.Intn(4), Dir: followerDir}
	flushEvery := time.Duration(0)
	if rng.Intn(3) == 0 {
		flushEvery = 200 * time.Microsecond
		out.Schedule = "window"
	} else {
		out.Schedule = "sync"
	}

	for _, b := range []struct {
		cfg    ssd.Config
		budget int64
	}{{pCfg, int64(192 + rng.Intn(1024))}, {fCfg, int64(192 + rng.Intn(1024))}} {
		dev, err := ssd.Open(b.cfg)
		if err != nil {
			return out, fmt.Errorf("device: %w", err)
		}
		if _, err := csr.Build(dev, "rep", edges, csr.BuildOptions{
			NumVertices: n, IntervalBudget: b.budget,
		}); err != nil {
			return out, fmt.Errorf("build: %w", err)
		}
	}

	reopen := func(cfg ssd.Config) (*ssd.Device, *csr.Graph, error) {
		dev, err := ssd.Open(cfg)
		if err != nil {
			return nil, nil, err
		}
		g, err := csr.OpenIngest(dev, "rep", csr.IngestOptions{
			WAL: true, FlushEvery: flushEvery, MergeThreshold: 1 << 30,
		})
		if err != nil {
			return nil, nil, err
		}
		return dev, g, nil
	}
	pDev, pg, err := reopen(pCfg)
	if err != nil {
		return fail("primary open: %v", err)
	}
	_, fg, err := reopen(fCfg)
	if err != nil {
		return fail("follower open: %v", err)
	}

	// The oracle: stream[s-1] is the mutation every node calls seq s.
	baseBag := make(edgeBag, len(edges))
	for _, e := range edges {
		baseBag[e]++
	}
	var stream []csr.Mutation
	prefixBag := func(seq uint64) edgeBag {
		b := baseBag.clone()
		for _, m := range stream[:seq] {
			b.apply(m)
		}
		return b
	}

	// checkNode asserts a node's durable truth: its edges are exactly
	// base + stream[:AppliedSeq].
	checkNode := func(g *csr.Graph, who string) error {
		a := g.AppliedSeq()
		if a > uint64(len(stream)) {
			return fmt.Errorf("%s applied seq %d beyond the %d-mutation oracle stream", who, a, len(stream))
		}
		got, err := g.CurrentEdges()
		if err != nil {
			return fmt.Errorf("%s CurrentEdges: %w", who, err)
		}
		if !edgeListEqual(got, prefixBag(a).edges()) {
			return fmt.Errorf("%s state at applied seq %d diverged from the oracle prefix (%d edges)", who, a, len(got))
		}
		return nil
	}

	crashPrimary := func(inflight []csr.Mutation) error {
		out.PrimaryCrashes++
		var err error
		pDev, pg, err = reopen(pCfg)
		if err != nil {
			return fmt.Errorf("primary reopen: %w", err)
		}
		got, err := pg.CurrentEdges()
		if err != nil {
			return fmt.Errorf("primary CurrentEdges after crash: %w", err)
		}
		k, ok := matchPrefix(got, prefixBag(uint64(len(stream))), inflight)
		if !ok {
			return fmt.Errorf("primary recovered state is not oracle+prefix of the in-flight batch")
		}
		stream = append(stream, inflight[:k]...)
		if pg.AppliedSeq() != uint64(len(stream)) {
			return fmt.Errorf("primary applied seq %d after crash, oracle stream has %d", pg.AppliedSeq(), len(stream))
		}
		return nil
	}

	crashFollower := func() error {
		out.FollowerCrashes++
		var err error
		_, fg, err = reopen(fCfg)
		if err != nil {
			return fmt.Errorf("follower reopen: %w", err)
		}
		return checkNode(fg, "follower")
	}

	// ship moves up to max frames primary→follower through the wire
	// format, in random chunks; cut drops a random suffix of the
	// encoding mid-stream (a connection dying mid-frame), which must
	// leave the follower holding a clean prefix.
	ship := func(max int, cut bool) error {
		from := fg.AppliedSeq() + 1
		recs, _, err := pg.ReplicationFrames(from, max)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		buf := wal.EncodeFrames(recs)
		if cut {
			buf = buf[:rng.Intn(len(buf)+1)]
		}
		dec := wal.NewTailDecoder(from)
		var got []wal.Record
		for len(buf) > 0 {
			k := 1 + rng.Intn(len(buf))
			part, err := dec.Feed(buf[:k])
			if err != nil {
				return fmt.Errorf("tail decode: %w", err)
			}
			got = append(got, part...)
			buf = buf[k:]
		}
		threshold := 1 << 30
		if rng.Intn(8) == 0 {
			threshold = 1 // force a crash-atomic merge (and FoldedSeq persist) on the follower
		}
		applied, err := fg.ApplyReplicated(got, threshold)
		out.Shipped += applied
		return err
	}

	armed := false
	rounds := 25 + rng.Intn(35)
	for r := 0; r < rounds; r++ {
		// Arm a mid-IO crash on the primary at random: the next batch (or
		// its merge) dies partway and the primary is killed there.
		if !armed && rng.Intn(10) == 0 {
			pDev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: 3 + rng.Int63n(80)})
			armed = true
		}

		// The primary never merges mid-case outside the gap probe below: a
		// merge truncates the WAL through its fold, which permanently gaps
		// any follower that is even one frame behind. (Follower-side
		// merges, which gap nobody, are forced at random inside ship.)
		batch := make([]csr.Mutation, 1+rng.Intn(6))
		for i := range batch {
			batch[i] = csr.Mutation{
				Del: rng.Intn(3) == 0,
				Src: uint32(rng.Intn(int(n))),
				Dst: uint32(rng.Intn(int(n))),
			}
		}
		if err := pg.ApplyMutations(batch, 1<<30); err != nil {
			family := classify(err)
			if family == "" {
				return fail("unclassified primary ingest failure: %v", err)
			}
			out.Faults = append(out.Faults, family)
			if err := crashPrimary(batch); err != nil {
				return fail("%v", err)
			}
			armed = false
			continue
		}
		stream = append(stream, batch...)
		out.Acked += len(batch)

		// Ship some of the backlog, sometimes cut mid-stream.
		if rng.Intn(3) != 0 {
			if err := ship(1+rng.Intn(64), rng.Intn(4) == 0); err != nil {
				if errors.Is(err, wal.ErrSeqGap) {
					return fail("unexpected replication gap: %v", err)
				}
				family := classify(err)
				if family == "" {
					return fail("unclassified ship failure: %v", err)
				}
				out.Faults = append(out.Faults, family)
				if err := crashFollower(); err != nil {
					return fail("%v", err)
				}
			}
		}

		// Clean kill -9 of either node at random.
		if !armed && rng.Intn(12) == 0 {
			if err := crashPrimary(nil); err != nil {
				return fail("%v", err)
			}
		}
		if rng.Intn(12) == 0 {
			if err := crashFollower(); err != nil {
				return fail("%v", err)
			}
		}

		// Deliberate gap probe: merge the primary while the follower is
		// behind — sometimes with a mid-merge kill armed, so the fold dies
		// partway and the reopen redoes (or abandons) it. A completed fold
		// truncates the frames the follower still needs, so the next ship
		// MUST report wal.ErrSeqGap — the terminal, classified "re-seed me"
		// outcome — and the follower must still hold a clean oracle prefix.
		if !armed && rng.Intn(30) == 0 && fg.AppliedSeq() < pg.AppliedSeq() {
			midMergeKill := rng.Intn(2) == 0
			if midMergeKill {
				pDev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: 2 + rng.Int63n(20)})
			}
			mergeErr := pg.MergeInterval(0)
			if mergeErr != nil {
				if classify(mergeErr) == "" {
					return fail("unclassified primary fold failure: %v", mergeErr)
				}
				// Died mid-merge: kill the primary there and reopen, which
				// replays the WAL and redoes any committed merge manifest.
				if err := crashPrimary(nil); err != nil {
					return fail("%v", err)
				}
			} else if midMergeKill {
				pDev.SetFaults(ssd.FaultPlan{})
			}
			err := ship(64, false)
			switch {
			case errors.Is(err, wal.ErrSeqGap):
				// The fold completed (directly or via redo): terminal gap.
				out.Faults = append(out.Faults, "replica_gap")
				out.Schedule += "+gap"
				if err := checkNode(fg, "follower"); err != nil {
					return fail("%v", err)
				}
				return out, nil
			case err == nil:
				// The kill landed before the fold committed, so the WAL
				// survived untruncated and the ship went through: continue.
			default:
				return fail("ship after primary fold: %v", err)
			}
		}
	}

	// Finale: disarm, let the follower catch up fully, kill the primary
	// for good, promote the follower, and prove the promoted node is the
	// primary's bit-identical successor.
	pDev.SetFaults(ssd.FaultPlan{})
	if err := crashPrimary(nil); err != nil {
		return fail("%v", err)
	}
	for fg.AppliedSeq() < pg.AppliedSeq() {
		if err := ship(64, false); err != nil {
			return fail("final catch-up: %v", err)
		}
	}
	// The primary dies here (abandoned, never reopened). Promote: the
	// follower takes local writes that extend the same sequence stream.
	out.Promoted = true
	post := make([]csr.Mutation, 1+rng.Intn(6))
	for i := range post {
		post[i] = csr.Mutation{
			Del: rng.Intn(3) == 0,
			Src: uint32(rng.Intn(int(n))),
			Dst: uint32(rng.Intn(int(n))),
		}
	}
	if err := fg.ApplyMutations(post, 1<<30); err != nil {
		return fail("post-promotion write: %v", err)
	}
	stream = append(stream, post...)
	out.Acked += len(post)
	if fg.AppliedSeq() != uint64(len(stream)) {
		return fail("promoted node's seq %d does not extend the stream (%d)", fg.AppliedSeq(), len(stream))
	}
	if err := checkNode(fg, "promoted follower"); err != nil {
		return fail("%v", err)
	}

	// BFS on the promoted node (CSR + delta overlay + its whole crash
	// history) must be bit-identical to a clean single-node graph built
	// from the oracle in one shot.
	oracleDev := ssd.MustOpen(ssd.Config{PageSize: 512, Channels: 2})
	og, err := csr.Build(oracleDev, "oracle", prefixBag(uint64(len(stream))).edges(), csr.BuildOptions{
		NumVertices: n, IntervalBudget: 4096,
	})
	if err != nil {
		return fail("oracle build: %v", err)
	}
	src := uint32(rng.Intn(int(n)))
	bfsRun := 0
	runBFS := func(g *csr.Graph) ([]uint32, error) {
		bfsRun++
		res, err := core.New(g, core.Config{
			MemoryBudget: 8 << 20, MaxSupersteps: 100, Ephemeral: true,
			RunTag: fmt.Sprintf("failover-%d-%d", seed, bfsRun),
		}).Run(&apps.BFS{Source: src})
		if err != nil {
			return nil, err
		}
		return res.Values, nil
	}
	gotVals, err := runBFS(fg)
	if err != nil {
		return fail("BFS on promoted node: %v", err)
	}
	wantVals, err := runBFS(og)
	if err != nil {
		return fail("BFS on oracle: %v", err)
	}
	if len(gotVals) != len(wantVals) {
		return fail("BFS value count %d vs oracle %d", len(gotVals), len(wantVals))
	}
	for v := range gotVals {
		if gotVals[v] != wantVals[v] {
			return fail("BFS diverged from single-node oracle at vertex %d: %d vs %d", v, gotVals[v], wantVals[v])
		}
	}
	return out, nil
}

// Replication measures the tentpole's two operational numbers: how fast
// a follower catches up through the wire format (frames/s over encode →
// chunked decode → ApplyReplicated), and the failover window — the time
// from "primary stops" to "promoted follower is caught up and has acked
// its first local write" — at several lag depths. Print-only: wall
// times vary with the host, so this experiment feeds no regression
// snapshot.
func Replication(size Size) (*metrics.Table, error) {
	ds, err := CFMini(size)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   fmt.Sprintf("replication: catch-up rate and failover window on %s", ds.Name),
		Headers: []string{"phase", "frames", "KiB shipped", "wall", "frames/s"},
	}

	rng := rand.New(rand.NewSource(7))
	mkNode := func() (*csr.Graph, error) {
		dev := ssd.MustOpen(ssd.Config{PageSize: 4096, Channels: 4})
		if _, err := csr.Build(dev, "rep", ds.Edges, csr.BuildOptions{
			NumVertices: ds.N, IntervalBudget: 64 << 10,
		}); err != nil {
			return nil, err
		}
		return csr.OpenIngest(dev, "rep", csr.IngestOptions{WAL: true, MergeThreshold: 1 << 30})
	}
	pg, err := mkNode()
	if err != nil {
		return nil, err
	}
	fg, err := mkNode()
	if err != nil {
		return nil, err
	}

	mutate := func(g *csr.Graph, k int) error {
		for k > 0 {
			b := 64
			if k < b {
				b = k
			}
			batch := make([]csr.Mutation, b)
			for i := range batch {
				batch[i] = csr.Mutation{
					Del: rng.Intn(4) == 0,
					Src: uint32(rng.Intn(int(ds.N))),
					Dst: uint32(rng.Intn(int(ds.N))),
				}
			}
			if err := g.ApplyMutations(batch, 1<<30); err != nil {
				return err
			}
			k -= b
		}
		return nil
	}

	// drain ships primary→follower through the wire format until the
	// follower is caught up, returning frames moved and bytes on the wire.
	drain := func() (int, int, error) {
		frames, bytes := 0, 0
		for fg.AppliedSeq() < pg.AppliedSeq() {
			recs, _, err := pg.ReplicationFrames(fg.AppliedSeq()+1, 1024)
			if err != nil {
				return frames, bytes, err
			}
			buf := wal.EncodeFrames(recs)
			bytes += len(buf)
			dec := wal.NewTailDecoder(fg.AppliedSeq() + 1)
			got, err := dec.Feed(buf)
			if err != nil {
				return frames, bytes, err
			}
			applied, err := fg.ApplyReplicated(got, 1<<30)
			frames += applied
			if err != nil {
				return frames, bytes, err
			}
		}
		return frames, bytes, nil
	}

	row := func(phase string, frames, bytes int, wall time.Duration) {
		fps := "-"
		if wall > 0 && frames > 0 {
			fps = fmt.Sprintf("%.0f", float64(frames)/wall.Seconds())
		}
		t.AddRow(phase, fmt.Sprint(frames), fmt.Sprintf("%.1f", float64(bytes)/1024), metrics.D(wall), fps)
	}

	// Catch-up: a deep backlog shipped in one sitting.
	backlog := 2000 << (2 * uint(size))
	if err := mutate(pg, backlog); err != nil {
		return nil, err
	}
	start := time.Now()
	frames, bytes, err := drain()
	if err != nil {
		return nil, err
	}
	row("catch-up", frames, bytes, time.Since(start))

	// Failover window at increasing lag: primary stops with L unshipped
	// frames; the window is drain + the promoted node's first local ack.
	for _, lag := range []int{0, 256, 2048} {
		if err := mutate(pg, lag); err != nil {
			return nil, err
		}
		start := time.Now()
		frames, bytes, err := drain()
		if err != nil {
			return nil, err
		}
		if err := fg.ApplyMutations([]csr.Mutation{{Src: 1, Dst: 2}}, 1<<30); err != nil {
			return nil, fmt.Errorf("post-promotion ack: %w", err)
		}
		window := time.Since(start)
		// Re-level the pair for the next lag depth: the promoted node's
		// local write is not in the primary's stream, so rebuild the
		// follower side fresh.
		row(fmt.Sprintf("failover lag=%d", lag), frames, bytes, window)
		if fg, err = mkNode(); err != nil {
			return nil, err
		}
		if _, _, err := drain(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
