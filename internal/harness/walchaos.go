package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
	"multilogvc/internal/wal"
)

// The WAL soak drives a WAL-backed primary, and optionally a warm-standby
// follower, each on its own disk-backed device, through random mutation
// batches, fault schedules and kill -9 style reopens. Its oracle is the
// acknowledged stream: sequence numbers are identity, so stream[s-1] is
// the mutation every node knows as seq s, and every node's edge multiset
// must equal the base graph plus stream[:AppliedSeq].

// walNode is one node: its device geometry and its current incarnation.
type walNode struct {
	name string
	cfg  ssd.Config
	dev  *ssd.Device
	g    *csr.Graph
}

// walCase is one WAL soak case and its oracle.
type walCase struct {
	rng        *rand.Rand
	n          uint32
	flushEvery time.Duration
	base       []graphio.Edge
	stream     []csr.Mutation
	primary    *walNode
	follower   *walNode // nil: the ingest soak
	out        outcome
}

// newWALCase builds a random base graph on a primary, and on a follower
// when asked (a follower is seeded from a copy of the primary's data),
// each in a directory from dirs, and opens them WAL-backed.
func newWALCase(seed int64, dirs func() string, follower bool) (*walCase, error) {
	rng := rand.New(rand.NewSource(seed))
	edges, n, err := randGraph(rng, 3)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	c := &walCase{rng: rng, n: n, base: edges, out: outcome{desc: "sync", n: map[string]int{}}}
	if rng.Intn(3) == 0 {
		c.flushEvery = 200 * time.Microsecond // group commit window
		c.out.desc = "window"
	}
	nodes := []string{"primary"}
	if follower {
		nodes = append(nodes, "follower")
	}
	for _, name := range nodes {
		// Independent geometry per node: frames are logical, so a
		// follower need not share the primary's page size, channel count
		// or interval layout.
		nd := &walNode{name: name, cfg: ssd.Config{
			PageSize: 128 << rng.Intn(3),
			Channels: 1 + rng.Intn(4),
			Dir:      dirs(),
			Retry:    ssd.RetryPolicy{MaxRetries: 4},
		}}
		dev, err := ssd.Open(nd.cfg)
		if err != nil {
			return nil, err
		}
		if _, err := csr.Build(dev, "wal", edges, csr.BuildOptions{
			NumVertices: n, IntervalBudget: int64(192 + rng.Intn(1024)),
		}); err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		if err := c.reopen(nd); err != nil {
			return nil, fmt.Errorf("%s open: %w", name, err)
		}
		if name == "primary" {
			c.primary = nd
		} else {
			c.follower = nd
		}
	}
	return c, nil
}

// reopen opens a fresh, injector-free device over the node's directory
// and the graph on it, replaying the WAL and redoing any interrupted
// merge.
func (c *walCase) reopen(nd *walNode) error {
	dev, err := ssd.Open(nd.cfg)
	if err != nil {
		return err
	}
	g, err := csr.OpenIngest(dev, "wal", csr.IngestOptions{
		WAL: true, FlushEvery: c.flushEvery, MergeThreshold: 1 << 30,
	})
	if err != nil {
		return err
	}
	nd.dev, nd.g = dev, g
	return nil
}

// oracle returns the edge multiset after the first seq mutations of the
// stream, sorted. An add appends an instance, a del removes one matching
// instance if present, as the delta overlay does.
func (c *walCase) oracle(seq uint64) []graphio.Edge {
	bag := make(map[graphio.Edge]int, len(c.base))
	for _, e := range c.base {
		bag[e]++
	}
	for _, m := range c.stream[:seq] {
		e := graphio.Edge{Src: m.Src, Dst: m.Dst}
		if !m.Del {
			bag[e]++
		} else if bag[e] > 0 {
			bag[e]--
		}
	}
	var out []graphio.Edge
	for e, k := range bag {
		for ; k > 0; k-- {
			out = append(out, e)
		}
	}
	graphio.SortEdges(out)
	return out
}

// check asserts a node's durable truth: its edges are exactly
// base + stream[:AppliedSeq].
func (c *walCase) check(nd *walNode) error {
	a := nd.g.AppliedSeq()
	if a > uint64(len(c.stream)) {
		return fmt.Errorf("%s applied seq %d beyond the %d-mutation oracle stream", nd.name, a, len(c.stream))
	}
	got, err := nd.g.CurrentEdges()
	if err != nil {
		return fmt.Errorf("%s CurrentEdges: %w", nd.name, err)
	}
	if !slices.Equal(got, c.oracle(a)) {
		return fmt.Errorf("%s state at applied seq %d diverged from the oracle prefix (%d edges)", nd.name, a, len(got))
	}
	return nil
}

// crash kills a node — its device is abandoned without Close, and
// disk-backed stores write through, so its files are what a crashed
// process leaves — and reopens it cold. The primary must recover every
// acknowledged mutation plus a prefix of the in-flight batch (WAL frames
// land in submission order), and that prefix joins the stream; then the
// node must pass check.
func (c *walCase) crash(nd *walNode, inflight []csr.Mutation) error {
	c.out.n["crash-reopen"]++
	if err := c.reopen(nd); err != nil {
		return fmt.Errorf("%s reopen after crash: %w", nd.name, err)
	}
	if nd == c.primary {
		k := int(nd.g.AppliedSeq()) - len(c.stream)
		if k < 0 || k > len(inflight) {
			return fmt.Errorf("primary recovered to seq %d: not the %d acked mutations plus a prefix of the %d in flight",
				nd.g.AppliedSeq(), len(c.stream), len(inflight))
		}
		c.stream = append(c.stream, inflight[:k]...)
	}
	return c.check(nd)
}

// ship moves up to max frames primary→follower through the wire format
// (EncodeFrames → TailDecoder) in random chunks; cut drops a random
// suffix of the encoding (a connection dying mid-frame), which must leave
// the follower holding a clean prefix.
func (c *walCase) ship(max int, cut bool) error {
	from := c.follower.g.AppliedSeq() + 1
	recs, _, err := c.primary.g.ReplicationFrames(from, max)
	if err != nil || len(recs) == 0 {
		return err
	}
	buf := wal.EncodeFrames(recs)
	if cut {
		buf = buf[:c.rng.Intn(len(buf)+1)]
	}
	dec := wal.NewTailDecoder(from)
	var got []wal.Record
	for len(buf) > 0 {
		k := 1 + c.rng.Intn(len(buf))
		part, err := dec.Feed(buf[:k])
		if err != nil {
			return fmt.Errorf("tail decode: %w", err)
		}
		got = append(got, part...)
		buf = buf[k:]
	}
	threshold := 1 << 30
	if c.rng.Intn(8) == 0 {
		threshold = 1 // force a crash-atomic merge (and FoldedSeq persist) on the follower
	}
	applied, err := c.follower.g.ApplyReplicated(got, threshold)
	c.out.n["shipped"] += applied
	return err
}

// walChaosCase runs one WAL soak case in directories from dirs. Hazards
// (a mid-IO crash, transient faults hot enough to exhaust retries,
// no-space) arm on the primary at random; at random points, and after
// every failure, a node is killed and reopened cold. Every
// recovered node must hold exactly its oracle prefix, pinned snapshots
// must not see later mutations, and the case ends in a merge whose
// compacted CSR still equals the oracle. With a follower, frames ship in
// random, cut chunks, a gap probe folds the primary under a lagging
// follower, and the finale promotes the follower. Any failure must be
// classified.
func walChaosCase(seed int64, dirs func() string, follower bool) (outcome, error) {
	goroutines := runtime.NumGoroutine()
	c, err := newWALCase(seed, dirs, follower)
	if err != nil {
		return outcome{}, fmt.Errorf("wal seed %d: %w", seed, err)
	}
	err = c.run()
	for _, nd := range []*walNode{c.primary, c.follower} {
		if err == nil && nd != nil {
			err = drainAudit(nd.dev, nd.cfg.Dir, goroutines)
		}
	}
	if err != nil {
		return c.out, fmt.Errorf("wal seed %d [%s]: %w", seed, c.out.desc, err)
	}
	return c.out, nil
}

// run drives the case's rounds and its finale.
func (c *walCase) run() error {
	rng, p, f := c.rng, c.primary, c.follower
	armed := "" // the hazard armed on the primary
	rounds := 25 + rng.Intn(35)
	for r := 0; r < rounds; r++ {
		// Hazards arm at random. Storms heal at random too, but an armed
		// crash stays armed until it kills the primary; every classified
		// failure also disarms via the crash path (the fresh device
		// carries no injectors).
		if armed == "" && rng.Intn(8) == 0 {
			plan := ssd.FaultPlan{Seed: uint64(rng.Int63()) | 1}
			switch rng.Intn(3) {
			case 0:
				plan.Crash, plan.CrashAfter = true, 3+rng.Int63n(80)
				armed = "crash"
			case 1:
				// Hot enough that 4 retries sometimes exhaust.
				plan.Transient.Prob = 0.05 + rng.Float64()*0.25
				armed = "transient"
			default:
				plan.NoSpace.Prob = 0.05 + rng.Float64()*0.20
				armed = "nospace"
			}
			c.out.desc += "+" + armed
			p.dev.SetFaults(plan)
		} else if armed != "" && armed != "crash" && rng.Intn(6) == 0 {
			p.dev.SetFaults(ssd.FaultPlan{})
			armed = ""
		}

		// Snapshot probe (quiet rounds only): a pinned epoch must not see
		// mutations applied after the pin.
		var snap *csr.Snapshot
		var before []graphio.Edge
		if armed == "" && rng.Intn(8) == 0 {
			snap = p.g.Snapshot()
			var err error
			if before, err = snap.Graph().CurrentEdges(); err != nil {
				snap.Release()
				return fmt.Errorf("snapshot probe read: %w", err)
			}
		}

		batch := randMutations(rng, c.n, 1+rng.Intn(6), 3)
		// The ingest soak forces a crash-atomic merge on one batch in six.
		// A primary with a follower merges only in the gap probe: a merge
		// truncates the WAL through its fold, which gaps any follower
		// that is even one frame behind.
		threshold := 0
		if f == nil && rng.Intn(6) == 0 {
			threshold = 1
		}
		c.out.n["batch"]++
		err := p.g.ApplyMutations(batch, threshold)

		if snap != nil {
			after, serr := snap.Graph().CurrentEdges()
			snap.Release()
			if serr != nil && classify(serr) == "" {
				return fmt.Errorf("snapshot probe reread: %w", serr)
			}
			if serr == nil && !slices.Equal(before, after) {
				return errors.New("pinned snapshot observed later mutations")
			}
		}

		if err != nil {
			family := classify(err)
			if family == "" {
				return fmt.Errorf("unclassified primary ingest failure: %w", err)
			}
			c.out.n[family]++
			// A failed batch may be partially durable; after a merge error
			// the batch itself is fully applied. Both are prefixes crash
			// accepts.
			if err := c.crash(p, batch); err != nil {
				return err
			}
			armed = ""
			continue
		}
		c.stream = append(c.stream, batch...)

		// Ship some of the backlog, sometimes cut mid-stream.
		if f != nil && rng.Intn(3) != 0 {
			if err := c.ship(1+rng.Intn(64), rng.Intn(4) == 0); err != nil {
				if errors.Is(err, wal.ErrSeqGap) {
					return fmt.Errorf("unexpected replication gap: %w", err)
				}
				family := classify(err)
				if family == "" {
					return fmt.Errorf("unclassified ship failure: %w", err)
				}
				c.out.n[family]++
				if err := c.crash(f, nil); err != nil {
					return err
				}
			}
		}

		// Clean kill -9 of either node at random: everything acknowledged
		// must be recovered exactly.
		if armed == "" && rng.Intn(12) == 0 {
			if err := c.crash(p, nil); err != nil {
				return err
			}
		}
		if f != nil && rng.Intn(12) == 0 {
			if err := c.crash(f, nil); err != nil {
				return err
			}
		}

		if f != nil && armed == "" && rng.Intn(30) == 0 && f.g.AppliedSeq() < p.g.AppliedSeq() {
			if gapped, err := c.gapProbe(); gapped || err != nil {
				return err
			}
		}
	}
	return c.finale()
}

// gapProbe merges the primary while the follower is behind — sometimes
// with a mid-merge kill armed, so the fold dies partway and the reopen
// redoes (or abandons) it. A completed fold truncates the frames the
// follower still needs, so the next ship must report wal.ErrSeqGap — the
// terminal, classified "re-seed me" outcome, which ends the case — and
// the follower must still hold a clean oracle prefix.
func (c *walCase) gapProbe() (gapped bool, err error) {
	p := c.primary
	midMergeKill := c.rng.Intn(2) == 0
	if midMergeKill {
		p.dev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: 2 + c.rng.Int63n(20)})
	}
	if err := p.g.MergeInterval(0); err != nil {
		if classify(err) == "" {
			return false, fmt.Errorf("unclassified primary fold failure: %w", err)
		}
		// Died mid-merge: kill the primary there.
		if err := c.crash(p, nil); err != nil {
			return false, err
		}
	} else if midMergeKill {
		p.dev.SetFaults(ssd.FaultPlan{})
	}
	err = c.ship(64, false)
	switch {
	case errors.Is(err, wal.ErrSeqGap):
		c.out.n["replica_gap"]++
		c.out.desc += "+gap"
		return true, c.check(c.follower)
	case err != nil:
		return false, fmt.Errorf("ship after primary fold: %w", err)
	}
	// The kill landed before the fold committed, so the WAL survived
	// untruncated and the ship went through.
	return false, nil
}

// finale disarms the primary and kills it once more. With a follower, the
// follower catches up, the primary dies for good, and the follower is
// promoted: it takes local writes that extend the same sequence stream
// and must answer BFS — over its CSR, delta overlay and whole crash
// history — bit-identically to the reference engine on the oracle. The
// last node standing then folds everything down with a merge, and the
// compacted CSR must still equal the whole oracle.
func (c *walCase) finale() error {
	p, last := c.primary, c.primary
	p.dev.SetFaults(ssd.FaultPlan{})
	if err := c.crash(p, nil); err != nil {
		return err
	}
	if f := c.follower; f != nil {
		for f.g.AppliedSeq() < p.g.AppliedSeq() {
			if err := c.ship(64, false); err != nil {
				return fmt.Errorf("final catch-up: %w", err)
			}
		}
		c.out.n["promotion"]++
		post := randMutations(c.rng, c.n, 1+c.rng.Intn(6), 3)
		if err := f.g.ApplyMutations(post, 0); err != nil {
			return fmt.Errorf("post-promotion write: %w", err)
		}
		c.stream = append(c.stream, post...)
		if err := c.check(f); err != nil {
			return err
		}
		src := uint32(c.rng.Intn(int(c.n)))
		res, err := core.New(f.g, core.Config{
			MemoryBudget: 8 << 20, MaxSupersteps: 100, Ephemeral: true, RunTag: "q0",
		}).Run(&apps.BFS{Source: src})
		if err != nil {
			return fmt.Errorf("BFS on the promoted node: %w", err)
		}
		want := vc.NewRef(c.oracle(uint64(len(c.stream))), c.n).Run(&apps.BFS{Source: src}, 100).Values
		if !slices.Equal(res.Values, want) {
			return errors.New("BFS on the promoted node diverged from the oracle")
		}
		last = f
	}
	if err := last.g.MergeInterval(0); err != nil {
		return fmt.Errorf("final merge: %w", err)
	}
	if k := last.g.PendingUpdates(); k != 0 {
		return fmt.Errorf("final merge left %d pending updates", k)
	}
	if a := last.g.AppliedSeq(); a != uint64(len(c.stream)) {
		return fmt.Errorf("%s at seq %d after the final merge, the oracle stream has %d", last.name, a, len(c.stream))
	}
	return c.check(last)
}
