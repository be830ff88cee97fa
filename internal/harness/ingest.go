package harness

import (
	"fmt"
	"math/rand"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

// IngestChaosOutcome summarizes one streaming-ingest chaos case for
// logging: what the schedule did and how often durability was exercised.
type IngestChaosOutcome struct {
	Seed     int64
	Schedule string
	Batches  int // mutation batches submitted
	Acked    int // batches acknowledged (durable by contract)
	Crashes  int // kill -9 style reopens: fresh device over the same dir
	// Faults are the classified sentinel families hit along the way.
	// An unclassified failure — above all a lost acknowledged mutation —
	// fails the case.
	Faults []string
}

// edgeBag is a brute-force multiset adjacency oracle, mirroring the
// delta overlay's semantics: an add appends an instance, a del removes
// one matching instance if present.
type edgeBag map[graphio.Edge]int

func (b edgeBag) apply(m csr.Mutation) {
	e := graphio.Edge{Src: m.Src, Dst: m.Dst}
	if !m.Del {
		b[e]++
		return
	}
	if b[e] > 0 {
		b[e]--
		if b[e] == 0 {
			delete(b, e)
		}
	}
}

func (b edgeBag) clone() edgeBag {
	c := make(edgeBag, len(b))
	for e, n := range b {
		c[e] = n
	}
	return c
}

func (b edgeBag) edges() []graphio.Edge {
	var out []graphio.Edge
	for e, n := range b {
		for i := 0; i < n; i++ {
			out = append(out, e)
		}
	}
	graphio.SortEdges(out)
	return out
}

func edgeListEqual(a, b []graphio.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// matchPrefix reports whether got equals base plus some prefix of batch.
// That is exactly the set of states a crashed ingest may legally recover
// to: WAL frames land in submission order, so the durable suffix of a
// failed batch is always a prefix of it. Returns the matching prefix
// length.
func matchPrefix(got []graphio.Edge, base edgeBag, batch []csr.Mutation) (int, bool) {
	cand := base.clone()
	for k := 0; k <= len(batch); k++ {
		if k > 0 {
			cand.apply(batch[k-1])
		}
		if edgeListEqual(got, cand.edges()) {
			return k, true
		}
	}
	return 0, false
}

// IngestChaosCase runs one randomized durable-ingest case over a
// disk-backed device in dir: random mutation batches stream into a
// WAL-backed graph while transient faults, no-space, and mid-IO crashes
// are armed at random; at random points (and after every fault) the
// process "dies" — the device is abandoned without Close and a fresh one
// opens over the same directory, replaying the WAL and redoing any
// interrupted merge. The invariant is the ingest durability contract:
// the recovered edge multiset is bit-identical to the acknowledged
// oracle plus at most a prefix of the one in-flight batch, or the
// failure is a classified sentinel — never a lost ack, never a silently
// wrong adjacency.
func IngestChaosCase(seed int64, dir string) (IngestChaosOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	out := IngestChaosOutcome{Seed: seed}
	fail := func(format string, args ...interface{}) (IngestChaosOutcome, error) {
		return out, fmt.Errorf("ingest seed %d [%s]: %s", seed, out.Schedule, fmt.Sprintf(format, args...))
	}

	// Random base graph.
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

	// One device geometry per case so every reopen sees the same layout.
	devCfg := ssd.Config{
		PageSize: 128 << rng.Intn(3),
		Channels: 1 + rng.Intn(4),
		Dir:      dir,
		Retry:    ssd.RetryPolicy{MaxRetries: 4},
	}
	flushEvery := time.Duration(0) // sync per batch
	if rng.Intn(3) == 0 {
		flushEvery = 200 * time.Microsecond // group commit window
		out.Schedule = "window"
	} else {
		out.Schedule = "sync"
	}
	add := func(s string) { out.Schedule += "+" + s }

	build, err := ssd.Open(devCfg)
	if err != nil {
		return out, fmt.Errorf("device: %w", err)
	}
	if _, err := csr.Build(build, "ingest", edges, csr.BuildOptions{
		NumVertices: n, IntervalBudget: int64(192 + rng.Intn(1024)),
	}); err != nil {
		return out, fmt.Errorf("build: %w", err)
	}

	// reopen simulates kill -9 + restart: the previous device is simply
	// abandoned (disk-backed stores write through, so its state is what a
	// crashed process would leave) and a fresh, injector-free device opens
	// over the same directory, replaying the WAL and redoing any
	// interrupted merge.
	reopen := func() (*ssd.Device, *csr.Graph, error) {
		dev, err := ssd.Open(devCfg)
		if err != nil {
			return nil, nil, err
		}
		g, err := csr.OpenIngest(dev, "ingest", csr.IngestOptions{
			WAL: true, FlushEvery: flushEvery, MergeThreshold: 1 << 30,
		})
		if err != nil {
			return nil, nil, err
		}
		return dev, g, nil
	}
	dev, g, err := reopen()
	if err != nil {
		return fail("initial open: %v", err)
	}

	oracle := make(edgeBag, len(edges))
	for _, e := range edges {
		oracle[e]++
	}

	// crash abandons the current device, reopens clean, and checks the
	// recovered state against the oracle plus a prefix of the (possibly
	// empty) in-flight batch; the recovered state becomes the new oracle.
	crash := func(inflight []csr.Mutation) error {
		out.Crashes++
		var err error
		dev, g, err = reopen()
		if err != nil {
			return fmt.Errorf("reopen after crash: %w", err)
		}
		got, err := g.CurrentEdges()
		if err != nil {
			return fmt.Errorf("CurrentEdges after crash: %w", err)
		}
		k, ok := matchPrefix(got, oracle, inflight)
		if !ok {
			return fmt.Errorf("recovered state is not oracle+prefix of the in-flight batch (%d edges recovered, %d acked, %d in flight)",
				len(got), len(oracle.edges()), len(inflight))
		}
		for _, m := range inflight[:k] {
			oracle.apply(m)
		}
		return nil
	}

	armed := false
	scheduled := map[string]bool{}
	rounds := 25 + rng.Intn(35)
	for r := 0; r < rounds; r++ {
		// Hazards arm and heal at random; every classified failure also
		// disarms via the crash path (the fresh device carries no injectors).
		if !armed && rng.Intn(8) == 0 {
			plan := ssd.FaultPlan{Seed: uint64(seed) | 1}
			switch rng.Intn(3) {
			case 0:
				plan.Crash, plan.CrashAfter = true, 3+rng.Int63n(80)
				scheduled["crash"] = true
			case 1:
				// Hot enough that 4 retries sometimes exhaust.
				plan.Transient.Prob = 0.05 + rng.Float64()*0.25
				scheduled["transient"] = true
			default:
				plan.NoSpace.Prob = 0.05 + rng.Float64()*0.20
				scheduled["nospace"] = true
			}
			dev.SetFaults(plan)
			armed = true
		} else if armed && rng.Intn(6) == 0 {
			dev.SetFaults(ssd.FaultPlan{})
			armed = false
		}

		// Snapshot probe (quiet rounds only): a pinned epoch must not see
		// mutations applied after the pin.
		var snap *csr.Snapshot
		var snapBefore []graphio.Edge
		if !armed && rng.Intn(8) == 0 {
			snap = g.Snapshot()
			if snapBefore, err = snap.Graph().CurrentEdges(); err != nil {
				snap.Release()
				return fail("snapshot probe read: %v", err)
			}
		}

		batch := make([]csr.Mutation, 1+rng.Intn(6))
		for i := range batch {
			batch[i] = csr.Mutation{
				Del: rng.Intn(3) == 0,
				Src: uint32(rng.Intn(int(n))),
				Dst: uint32(rng.Intn(int(n))),
			}
		}
		threshold := 0
		if rng.Intn(6) == 0 {
			threshold = 1 // force a crash-atomic merge on this batch
		}
		out.Batches++
		err := g.ApplyMutations(batch, threshold)

		if snap != nil {
			snapAfter, serr := snap.Graph().CurrentEdges()
			snap.Release()
			if serr != nil && classify(serr) == "" {
				return fail("snapshot probe reread: %v", serr)
			}
			if serr == nil && !edgeListEqual(snapBefore, snapAfter) {
				return fail("pinned snapshot observed later mutations")
			}
		}

		if err != nil {
			family := classify(err)
			if family == "" {
				return fail("unclassified ingest failure: %v", err)
			}
			out.Faults = append(out.Faults, family)
			// A failed batch may be partially durable; after a merge error
			// the batch itself is fully applied. Both are prefixes the
			// crash check accepts.
			if err := crash(batch); err != nil {
				return fail("%v", err)
			}
			armed = false
			continue
		}
		out.Acked++
		for _, m := range batch {
			oracle.apply(m)
		}

		// Clean kill -9: everything acknowledged must be recovered exactly.
		if !armed && rng.Intn(12) == 0 {
			if err := crash(nil); err != nil {
				return fail("%v", err)
			}
		}
	}

	// Final leg: disarm, crash once more, then fold everything down with a
	// merge and re-check — the compacted CSR must still equal the oracle.
	dev.SetFaults(ssd.FaultPlan{})
	if err := crash(nil); err != nil {
		return fail("%v", err)
	}
	if err := g.MergeInterval(0); err != nil {
		return fail("final merge: %v", err)
	}
	if g.PendingUpdates() != 0 {
		return fail("final merge left %d pending updates", g.PendingUpdates())
	}
	got, err := g.CurrentEdges()
	if err != nil {
		return fail("final CurrentEdges: %v", err)
	}
	if !edgeListEqual(got, oracle.edges()) {
		return fail("merged state diverged from oracle (%d vs %d edges)", len(got), len(oracle.edges()))
	}
	for f := range scheduled {
		add(f)
	}
	return out, nil
}
