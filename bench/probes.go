package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/edgelog"
	"multilogvc/internal/extsort"
	"multilogvc/internal/graphio"
	"multilogvc/internal/mlog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/sortgroup"
	"multilogvc/internal/ssd"
	"multilogvc/internal/wal"
)

// Layer probes. Each calls one layer's exported functions directly,
// inside a span, on inputs shaped by the workload: its graph and interval
// map, its message multiset (one (dst,src,data) record per edge, emitted
// in source order from `workers` goroutines over static chunks), its
// memory budget and its cache size. Timings are the median of probeReps
// passes.

const (
	probeReps   = 3
	maxProbeMsg = 1_000_000
	ioBatch     = 64 // pages per ReadPages / AppendPages call
)

type probeInput struct {
	g          *csr.Graph     // the workload's graph, on its own device
	edges      []graphio.Edge // the edges it holds now
	memBudget  int64
	cachePages int // 0 = the workload runs uncached
	workers    int
	seed       int64
	quick      bool
}

// timed runs fn inside a span and returns its duration in nanoseconds.
func timed(tr *obsv.Trace, name string, rep int, fn func() error) (float64, error) {
	sp := tr.Begin("probe", name)
	sp.Arg("iter", int64(rep))
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	return float64(d.Nanoseconds()), err
}

func runProbes(in probeInput, tr *obsv.Trace, rec *record) error {
	sp := tr.Begin("probe", "probes")
	defer sp.End()
	// An empty scratch device for the probes that write.
	dev, err := ssd.Open(ssd.Config{PageSize: pageSize, Channels: channels})
	if err != nil {
		return err
	}
	msgs := in.edges
	if len(msgs) > maxProbeMsg {
		msgs = msgs[:maxProbeMsg]
	}
	for _, probe := range []func(probeInput, []graphio.Edge, *ssd.Device, *obsv.Trace, *record) error{
		probeLogs, probeExtsort, probeAdjacency, probeIngest, probeCache, probeDevice, probeWAL,
	} {
		if err := probe(in, msgs, dev, tr, rec); err != nil {
			return err
		}
	}
	return nil
}

// probeLogs drives the message path the engine runs every superstep:
// mlog.Append from the workers, FlushAll, then per-interval Read, and
// sortgroup.Load + Grouper.Next over the same log.
func probeLogs(in probeInput, msgs []graphio.Edge, dev *ssd.Device, tr *obsv.Trace, rec *record) error {
	ivs := in.g.Intervals()
	log, err := mlog.New(dev, "probe.mlog", len(ivs), in.memBudget*5/100)
	if err != nil {
		return err
	}
	n := float64(len(msgs))
	var appendNs, readNs, loadNs, groupNs []float64
	var written, loadReads uint64
	batches := 0
	for rep := 0; rep < probeReps; rep++ {
		if err := log.ResetAll(); err != nil {
			return err
		}
		before := dev.Stats()
		ns, err := timed(tr, "mlog.append+flush", rep, func() error {
			var wg sync.WaitGroup
			errs := make([]error, in.workers)
			chunk := (len(msgs) + in.workers - 1) / in.workers
			for w := 0; w < in.workers; w++ {
				lo, hi := w*chunk, (w+1)*chunk
				if hi > len(msgs) {
					hi = len(msgs)
				}
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(w int, part []graphio.Edge) {
					defer wg.Done()
					for _, e := range part {
						if err := log.Append(in.g.IntervalOf(e.Dst), e.Dst, e.Src, e.Src); err != nil {
							errs[w] = err
							return
						}
					}
				}(w, msgs[lo:hi])
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return log.FlushAll()
		})
		if err != nil {
			return err
		}
		appendNs = append(appendNs, ns/n)
		written = dev.Stats().Sub(before).PagesWritten

		read := 0
		ns, err = timed(tr, "mlog.read", rep, func() error {
			for iv := range ivs {
				if err := log.Read(iv, func(dst, src, data uint32) { read++ }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rec.check(read == len(msgs), "mlog probe: read back %d of %d records", read, len(msgs))
		readNs = append(readNs, ns/n)

		before = dev.Stats()
		var loaded []*sortgroup.Batch
		ns, err = timed(tr, "sortgroup.load", rep, func() error {
			for iv := 0; iv < len(ivs); {
				b, err := sortgroup.Load(log, ivs, iv, sortgroup.Options{SortBudget: in.memBudget * 75 / 100})
				if err != nil {
					return err
				}
				loaded = append(loaded, b)
				iv = b.LastIv + 1
			}
			return nil
		})
		if err != nil {
			return err
		}
		loadNs = append(loadNs, ns/n)
		loadReads = dev.Stats().Sub(before).PagesRead
		batches = len(loaded)

		grouped, ordered := 0, true
		ns, err = timed(tr, "sortgroup.group", rep, func() error {
			for _, b := range loaded {
				for more := true; more; {
					gr := sortgroup.NewGrouper(b, nil)
					last := int64(-1)
					for dst, ms, ok := gr.Next(); ok; dst, ms, ok = gr.Next() {
						ordered = ordered && int64(dst) > last
						last = int64(dst)
						grouped += len(ms)
					}
					var err error
					if more, err = b.NextChunk(); err != nil {
						return err
					}
				}
				b.Close()
			}
			return nil
		})
		if err != nil {
			return err
		}
		groupNs = append(groupNs, ns/n)
		rec.check(grouped == len(msgs) && ordered, "sortgroup probe: grouped %d of %d records, ordered=%v", grouped, len(msgs), ordered)
	}
	rec.set("mlog.append_ns_per_msg", median(appendNs))
	rec.set("mlog.read_ns_per_msg", median(readNs))
	rec.set("mlog.pages_written_per_kmsg", float64(written)/(n/1e3))
	rec.set("sortgroup.load_ns_per_msg", median(loadNs))
	rec.set("sortgroup.group_ns_per_msg", median(groupNs))
	rec.set("sortgroup.pages_read_per_kmsg", float64(loadReads)/(n/1e3))
	rec.set("sortgroup.batches", float64(batches))
	return log.ResetAll()
}

// probeExtsort sorts the message multiset with an eighth of its bytes as
// memory, so the spill path (runs written, k-way merge) has a number even
// though no current workload spills.
func probeExtsort(in probeInput, msgs []graphio.Edge, dev *ssd.Device, tr *obsv.Trace, rec *record) error {
	n := float64(len(msgs))
	var sortNs []float64
	var st extsort.Stats
	var written uint64
	for rep := 0; rep < probeReps; rep++ {
		before := dev.Stats()
		out, ordered, last := 0, true, uint32(0)
		ns, err := timed(tr, "extsort.sort", rep, func() error {
			var err error
			st, err = extsort.Sort(dev, "probe.xs", func(yield func(extsort.Record) error) error {
				for _, e := range msgs {
					if err := yield(extsort.Record{Dst: e.Dst, Src: e.Src, Data: e.Src}); err != nil {
						return err
					}
				}
				return nil
			}, int64(len(msgs))*extsort.RecordBytes/8, nil, func(r extsort.Record) error {
				ordered = ordered && r.Dst >= last
				last = r.Dst
				out++
				return nil
			})
			return err
		})
		if err != nil {
			return err
		}
		rec.check(out == len(msgs) && ordered, "extsort probe: emitted %d of %d records, ordered=%v", out, len(msgs), ordered)
		sortNs = append(sortNs, ns/n)
		written = dev.Stats().Sub(before).PagesWritten
	}
	rec.set("extsort.sort_ns_per_rec", median(sortNs))
	rec.set("extsort.runs", float64(st.Runs))
	rec.set("extsort.pages_written_per_krec", float64(written)/(n/1e3))
	return nil
}

// sampleByInterval draws a seeded 1 % vertex sample (at least one vertex
// per 100), sorted and grouped by interval.
func sampleByInterval(g *csr.Graph, seed int64) (map[int][]uint32, int) {
	rng := rand.New(rand.NewSource(seed))
	n := int(g.NumVertices())
	want := n/100 + 1
	picked := make(map[uint32]bool, want)
	for len(picked) < want {
		picked[uint32(rng.Intn(n))] = true
	}
	verts := make([]uint32, 0, want)
	for v := range picked {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	out := make(map[int][]uint32)
	for _, v := range verts {
		iv := g.IntervalOf(v)
		out[iv] = append(out[iv], v)
	}
	return out, len(verts)
}

// probeAdjacency reads the workload's CSR both ways the engine does —
// whole intervals (dense supersteps) and a sparse vertex sample (thin
// frontiers) — then drives a value file and the edge log with the sample.
func probeAdjacency(in probeInput, _ []graphio.Edge, dev *ssd.Device, tr *obsv.Trace, rec *record) error {
	g := in.g
	ivs := g.Intervals()
	sample, sampled := sampleByInterval(g, in.seed)
	sampleIvs := make([]int, 0, len(sample))
	for iv := range sample {
		sampleIvs = append(sampleIvs, iv)
	}
	sort.Ints(sampleIvs)

	var denseNs, sparseUs, valueNs []float64
	var sparsePages int
	for rep := 0; rep < probeReps; rep++ {
		edges := 0
		ns, err := timed(tr, "csr.adj_dense", rep, func() error {
			for iv, interval := range ivs {
				verts := make([]uint32, 0, interval.Len())
				for v := interval.Lo; v < interval.Hi; v++ {
					verts = append(verts, v)
				}
				if _, err := g.LoadOutEdges(iv, verts, func(_ uint32, nbrs []uint32) { edges += len(nbrs) }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rec.check(edges == len(in.edges), "csr probe: dense scan saw %d of %d edges", edges, len(in.edges))
		denseNs = append(denseNs, ns/float64(edges))

		sparsePages = 0
		ns, err = timed(tr, "csr.adj_sparse", rep, func() error {
			for _, iv := range sampleIvs {
				st, err := g.LoadOutEdges(iv, sample[iv], func(uint32, []uint32) {})
				if err != nil {
					return err
				}
				sparsePages += st.RowPtrPages + st.ColIdxPages
			}
			return nil
		})
		if err != nil {
			return err
		}
		sparseUs = append(sparseUs, ns/1e3/float64(sampled))
	}
	rec.set("csr.adj_dense_ns_per_edge", median(denseNs))
	rec.set("csr.adj_sparse_us_per_vertex", median(sparseUs))
	rec.set("csr.adj_sparse_pages_per_vertex", float64(sparsePages)/float64(sampled))

	vals, err := csr.CreateValues(dev, "probe.values", g.NumVertices(), 0)
	if err != nil {
		return err
	}
	for rep := 0; rep < probeReps; rep++ {
		ns, err := timed(tr, "csr.values", rep, func() error {
			for _, iv := range sampleIvs {
				vb, _, err := vals.LoadForVerts(sample[iv])
				if err != nil {
					return err
				}
				for _, v := range sample[iv] {
					vb.Set(v, vb.Get(v)+1)
				}
				if _, err := vb.Flush(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		valueNs = append(valueNs, ns/float64(sampled))
	}
	rec.set("csr.values_ns_per_vertex", median(valueNs))

	// Edge log: re-log the sample's adjacency, swap generations, load it back.
	type adjacency struct {
		v    uint32
		nbrs []uint32
	}
	var lists []adjacency
	sampleEdges := 0
	for _, iv := range sampleIvs {
		if _, err := g.LoadOutEdges(iv, sample[iv], func(v uint32, nbrs []uint32) {
			lists = append(lists, adjacency{v, append([]uint32(nil), nbrs...)})
			sampleEdges += len(nbrs)
		}); err != nil {
			return err
		}
	}
	if sampleEdges == 0 {
		return nil
	}
	var logNs, loadNs []float64
	for rep := 0; rep < probeReps; rep++ {
		elog, err := edgelog.New(dev, "probe.elog", false)
		if err != nil {
			return err
		}
		ns, err := timed(tr, "edgelog.log", rep, func() error {
			for _, a := range lists {
				if err := elog.LogEdges(a.v, a.nbrs, nil); err != nil {
					return err
				}
			}
			return elog.EndSuperstep()
		})
		if err != nil {
			return err
		}
		logNs = append(logNs, ns/float64(sampleEdges))
		loaded := 0
		ns, err = timed(tr, "edgelog.load", rep, func() error {
			for _, iv := range sampleIvs {
				if _, err := elog.Load(sample[iv], func(_ uint32, nbrs, _ []uint32) { loaded += len(nbrs) }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rec.check(loaded == sampleEdges, "edgelog probe: loaded %d of %d edges", loaded, sampleEdges)
		loadNs = append(loadNs, ns/float64(sampleEdges))
	}
	rec.set("edgelog.log_ns_per_edge", median(logNs))
	rec.set("edgelog.load_ns_per_edge", median(loadNs))
	return nil
}

// probeIngest prices the write side of csr on a scratch copy of the
// workload's graph: ApplyMutations in 256-batches with no WAL and no merge,
// then one MergeInterval over the 4,096 buffered mutations.
func probeIngest(in probeInput, _ []graphio.Edge, dev *ssd.Device, tr *obsv.Trace, rec *record) error {
	const batch, total = 256, 4096
	var applyUs, mergeMs []float64
	reps := probeReps
	if len(in.edges) > 500_000 {
		reps = 1 // the copy's build and merge dominate the probe's time on the big graphs
	}
	for rep := 0; rep < reps; rep++ {
		name := fmt.Sprintf("probe.g%d", rep)
		g, err := csr.Build(dev, name, in.edges, csr.BuildOptions{
			NumVertices: in.g.NumVertices(), IntervalBudget: in.memBudget * 75 / 100})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(in.seed + int64(rep)))
		n := int(g.NumVertices())
		ns, err := timed(tr, "csr.apply", rep, func() error {
			for done := 0; done < total; done += batch {
				ms := make([]csr.Mutation, batch)
				for i := range ms {
					ms[i] = csr.Mutation{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
				}
				if err := g.ApplyMutations(ms, 1<<30); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		applyUs = append(applyUs, ns/1e3/total)
		ns, err = timed(tr, "csr.merge", rep, func() error { return g.MergeInterval(0) })
		if err != nil {
			return err
		}
		mergeMs = append(mergeMs, ns/1e6)
		rec.check(g.Merges() == 1 && g.PendingUpdates() == 0 && g.NumEdges() == uint64(len(in.edges)+total),
			"csr probe: after merge merges=%d pending=%d edges=%d", g.Merges(), g.PendingUpdates(), g.NumEdges())
		if err := csr.Remove(dev, name); err != nil {
			return err
		}
	}
	rec.set("csr.apply_us_per_mutation", median(applyUs))
	rec.set("csr.merge_ms", median(mergeMs))
	return nil
}

// probeCache times the page cache's two hot operations at the workload's
// cache size (4 MiB when the workload runs uncached): a Get that hits, and
// a Put into a full cache, which evicts.
func probeCache(in probeInput, _ []graphio.Edge, _ *ssd.Device, tr *obsv.Trace, rec *record) error {
	pages := in.cachePages
	if pages == 0 {
		pages = 4 << 20 / pageSize
	}
	c := pagecache.New(pages, pageSize)
	page := make([]byte, pageSize)
	ops := 200_000
	if in.quick {
		ops = 20_000
	}
	var hitNs, putNs []float64
	for rep := 0; rep < probeReps; rep++ {
		// Fill from file 1, then hit only what stayed resident: the shards
		// fill unevenly, so a few of the fill's own pages are evicted.
		var resident []int
		for p := 0; p < pages; p++ {
			c.Put(1, p, page, false)
		}
		for p := 0; p < pages; p++ {
			if c.Contains(1, p) {
				resident = append(resident, p)
			}
		}
		before := c.Stats()
		ns, _ := timed(tr, "pagecache.get_hit", rep, func() error {
			for i := 0; i < ops; i++ {
				c.Get(1, resident[i%len(resident)], page)
			}
			return nil
		})
		hitNs = append(hitNs, ns/float64(ops))
		gets := c.Stats().Sub(before)
		ns, _ = timed(tr, "pagecache.put_evict", rep, func() error {
			for i := 0; i < ops; i++ {
				c.Put(2+uint32(rep), i, page, false)
			}
			return nil
		})
		putNs = append(putNs, ns/float64(ops))
		puts := c.Stats().Sub(before)
		rec.check(gets.Hits == uint64(ops) && gets.Misses == 0 && puts.Inserts == uint64(ops) && puts.Evictions > uint64(ops/2),
			"pagecache probe: %d hits %d misses of %d gets; %d inserts %d evictions of %d puts",
			gets.Hits, gets.Misses, ops, puts.Inserts, puts.Evictions, ops)
	}
	rec.set("pagecache.get_hit_ns", median(hitNs))
	rec.set("pagecache.put_evict_ns", median(putNs))
	return nil
}

// probeDevice measures what a 64-page AppendPages / ReadPages costs the
// host (CRC on, RAM store).
func probeDevice(in probeInput, _ []graphio.Edge, dev *ssd.Device, tr *obsv.Trace, rec *record) error {
	batches := 64
	if in.quick {
		batches = 8
	}
	buf := make([]byte, ioBatch*pageSize)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	pages := make([]int, ioBatch)
	var readUs, writeUs []float64
	for rep := 0; rep < probeReps; rep++ {
		f, err := dev.Create(fmt.Sprintf("probe.io%d", rep))
		if err != nil {
			return err
		}
		ns, err := timed(tr, "ssd.append_pages", rep, func() error {
			for b := 0; b < batches; b++ {
				if err := f.AppendPages(buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		writeUs = append(writeUs, ns/1e3/float64(batches*ioBatch))
		ns, err = timed(tr, "ssd.read_pages", rep, func() error {
			for b := 0; b < batches; b++ {
				for i := range pages {
					pages[i] = b*ioBatch + i
				}
				if err := f.ReadPages(pages, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		readUs = append(readUs, ns/1e3/float64(batches*ioBatch))
		if err := dev.Remove(f.Name()); err != nil {
			return err
		}
	}
	rec.set("ssd.read_us_per_page", median(readUs))
	rec.set("ssd.write_us_per_page", median(writeUs))
	return nil
}

// probeWAL appends 256-record batches to a write-ahead log on the scratch
// device: with the daemon's 2 ms group-commit window (the floor under
// mutate latency) and with a synchronous flush per batch.
func probeWAL(in probeInput, _ []graphio.Edge, dev *ssd.Device, tr *obsv.Trace, rec *record) error {
	batches := 40
	if in.quick {
		batches = 10
	}
	n := uint32(in.g.NumVertices())
	one := func(name, span string, flushEvery time.Duration) (float64, error) {
		var us []float64
		for rep := 0; rep < probeReps; rep++ {
			l, _, err := wal.Open(dev, fmt.Sprintf("%s%d", name, rep), wal.Options{FlushEvery: flushEvery})
			if err != nil {
				return 0, err
			}
			ns, err := timed(tr, span, rep, func() error {
				for b := 0; b < batches; b++ {
					recs := make([]wal.Record, 256)
					for i := range recs {
						recs[i] = wal.Record{Op: wal.OpAdd, Src: uint32(b*256+i) % n, Dst: uint32(i) % n}
					}
					if _, _, err := l.Append(recs); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			st := l.Stats()
			rec.check(st.Appends == uint64(batches*256), "wal probe: %d of %d records durable", st.Appends, batches*256)
			if err := l.Close(); err != nil {
				return 0, err
			}
			us = append(us, ns/1e3/float64(batches))
		}
		return median(us), nil
	}
	group, err := one("probe.wal.group", "wal.append_group", 2*time.Millisecond)
	if err != nil {
		return err
	}
	sync, err := one("probe.wal.sync", "wal.append_sync", 0)
	if err != nil {
		return err
	}
	rec.set("wal.append_us_per_batch", group)
	rec.set("wal.append_sync_us_per_batch", sync)
	return nil
}
