package core

import (
	"errors"
	"sort"

	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/sortgroup"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// batch is one sorted chunk of a fused-interval batch on its way through
// the vertex stage; each step below fills in what the next ones read.
type batch struct {
	*run
	sg *sortgroup.Batch
	ss *metrics.SuperstepStats

	verts      []uint32              // active set, ascending
	vb         *csr.ValueBatch       // their value pages
	adj        map[uint32]*adjEntry  // their out-edges
	auxBatches map[int]*csr.AuxBatch // aux pages by interval (AuxUser programs)
	inSources  map[uint32][]uint32   // in-edge sources (AuxUser programs)
}

// adjEntry is one active vertex's adjacency, plus where it came from.
type adjEntry struct {
	nbrs      []uint32
	weights   []uint32 // nil for unweighted graphs
	fromElog  bool
	pageIneff bool // any covering CSR page measured inefficient now
	interval  int32
	firstPage int32
	lastPage  int32
}

// processBatch runs the vertex stage over the batch's current chunk.
func (r *run) processBatch(sg *sortgroup.Batch, ss *metrics.SuperstepStats) error {
	// Everything this batch touches — value pages, adjacency, aux, and the
	// message-log evictions draining its sends triggers — is
	// vertex-processing IO on the batch's interval range. Workers issue no
	// device IO at all.
	prevS, prevIv := r.io.SetStage(obsv.StageVertex, sg.FirstIv)
	defer r.io.SetStage(prevS, prevIv)

	b := &batch{run: r, sg: sg, ss: ss}
	if !b.activeSet() {
		return nil
	}
	for _, step := range []func() error{
		b.loadValues, b.loadAdjacency, b.loadAux, b.processVertices, b.relog, b.flush,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// activeSet collects message destinations ∪ carried-live vertices in range
// and reports whether there is anything to process.
func (b *batch) activeSet() bool {
	b.verts = superstep.ActiveSet(b.sg.Recs, b.carry, b.sg.Lo, b.sg.Hi)
	b.ss.Active += uint64(len(b.verts))
	b.ss.MsgsDelivered += uint64(len(b.sg.Recs))
	if b.pred != nil {
		for _, v := range b.verts {
			b.pred.NoteActive(v)
		}
	}
	return len(b.verts) > 0
}

// loadValues loads exactly the value pages covering the active set.
func (b *batch) loadValues() (err error) {
	span := b.cfg.Trace.Begin("engine", "load-values")
	span.Arg("verts", int64(len(b.verts)))
	if b.vb, _, err = b.values.LoadForVerts(b.verts); err != nil {
		return err
	}
	span.End()
	return nil
}

// byInterval calls fn once per vertex interval with the run of verts
// (ascending) it owns, in interval order.
func (b *batch) byInterval(verts []uint32, fn func(iv int, verts []uint32) error) error {
	ivs := b.g.Intervals()
	for len(verts) > 0 {
		iv := b.g.IntervalOf(verts[0])
		n := sort.Search(len(verts), func(i int) bool { return verts[i] >= ivs[iv].Hi })
		if err := fn(iv, verts[:n]); err != nil {
			return err
		}
		verts = verts[n:]
	}
	return nil
}

func cloneAdj(nbrs, weights []uint32) *adjEntry {
	a := &adjEntry{nbrs: append(make([]uint32, 0, len(nbrs)), nbrs...)}
	if weights != nil {
		a.weights = append(make([]uint32, 0, len(weights)), weights...)
	}
	return a
}

// loadAdjacency fetches each active vertex's out-edges from the edge log
// when it holds them and from CSR pages otherwise.
func (b *batch) loadAdjacency() error {
	span := b.cfg.Trace.Begin("engine", "load-adjacency")
	b.adj = make(map[uint32]*adjEntry, len(b.verts))
	var fromLog []uint32
	fromCSR := make([]uint32, 0, len(b.verts))
	for _, v := range b.verts {
		if b.elog != nil && b.elog.Has(v) {
			fromLog = append(fromLog, v)
		} else {
			fromCSR = append(fromCSR, v)
		}
	}
	if len(fromLog) > 0 {
		pages, err := b.elog.Load(fromLog, func(v uint32, nbrs, weights []uint32) {
			a := cloneAdj(nbrs, weights)
			a.fromElog = true
			b.adj[v] = a
		})
		switch {
		case errors.Is(err, ssd.ErrCorruptPage):
			// Self-healing: the edge log is a redundant adjacency cache, so
			// a corrupt page costs the whole current generation — never
			// correctness. Load batches all its page reads before the first
			// visit, so no partial adjacency was delivered; reroute every
			// log-resident vertex to canonical CSR loading below.
			if err := b.elog.InvalidateCurrent(); err != nil {
				return err
			}
			b.ss.ElogHealed++
			fromCSR = b.verts
		case err != nil:
			return err
		default:
			b.ss.EdgeLogPagesRead += uint64(pages)
		}
	}
	if err := b.byInterval(fromCSR, b.loadCSR); err != nil {
		return err
	}
	span.Arg("from_elog", int64(len(fromLog)))
	span.Arg("from_csr", int64(len(b.verts)-len(fromLog)))
	span.End()
	return nil
}

// loadCSR fetches the out-edges of verts (all in interval iv) from CSR
// pages and feeds the pages' utilization to the edge-log predictor.
func (b *batch) loadCSR(iv int, verts []uint32) error {
	stats, err := b.g.LoadOutEdgesFull(iv, verts, func(v uint32, nbrs, weights []uint32, first, last int32) {
		a := cloneAdj(nbrs, weights)
		a.interval, a.firstPage, a.lastPage = int32(iv), first, last
		b.adj[v] = a
	})
	if err != nil {
		return err
	}
	b.ss.ColIdxPagesRead += uint64(stats.ColIdxPages)
	if b.pred == nil {
		return nil
	}
	b.pred.NotePageUtils(stats.PageUtils)
	// Mark vertices whose pages measured inefficient this superstep; the
	// edge-log decision (relog) reads this.
	for _, v := range verts {
		a := b.adj[v]
		for p := a.firstPage; p <= a.lastPage; p++ {
			if b.pred.PageIneffNow(csr.PageKey{Side: 0, Interval: a.interval, Page: p}) {
				a.pageIneff = true
				break
			}
		}
	}
	return nil
}

// loadAux loads per-in-edge aux state and in-edge sources for AuxUser
// programs.
func (b *batch) loadAux() error {
	if b.aux == nil {
		return nil
	}
	span := b.cfg.Trace.Begin("engine", "load-aux")
	b.auxBatches = make(map[int]*csr.AuxBatch)
	b.inSources = make(map[uint32][]uint32)
	err := b.byInterval(b.verts, func(iv int, verts []uint32) error {
		ab, _, err := b.aux.LoadBatch(iv, verts)
		if err != nil {
			return err
		}
		b.auxBatches[iv] = ab
		_, err = b.g.LoadInEdges(iv, verts, func(v uint32, srcs []uint32) {
			b.inSources[v] = append(make([]uint32, 0, len(srcs)), srcs...)
		})
		return err
	})
	span.End()
	return err
}

// processVertices runs the program over the active set on the shared
// worker pool, wave by wave, and updates the carry set. Workers only fill
// their send buckets; after each wave the run goroutine drains them into the
// logs, so buffered sends stay bounded and the schedule decides no device IO.
func (b *batch) processVertices() error {
	recs := b.sg.Recs
	ranges := superstep.MsgRanges(b.verts, recs)
	span := b.cfg.Trace.Begin("engine", "process-vertices")
	span.Arg("verts", int64(len(b.verts)))
	halted := make([]bool, len(b.verts))
	for start, end := 0, 0; start < len(b.verts); start = end {
		end = b.waveEnd(start)
		if err := superstep.ForEach(b.cfg.Workers, end-start, func(w, lo, hi int) error {
			ctx := &b.ctxs[w]
			ctx.b, ctx.w = b, w
			for i := start + lo; i < start+hi; i++ {
				ctx.msgBuf = superstep.AppendMsgs(ctx.msgBuf[:0], recs[ranges[i][0]:ranges[i][1]])
				msgs := ctx.msgBuf
				if b.combiner != nil && len(msgs) > 1 {
					acc := msgs[0].Data
					for _, m := range msgs[1:] {
						acc = b.combiner.Combine(acc, m.Data)
					}
					msgs[0].Data = acc
					msgs = msgs[:1]
				}
				ctx.vertex = b.verts[i]
				ctx.haltedFlag = &halted[i]
				b.prog.Process(ctx, msgs)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := b.drainSends(); err != nil {
			return err
		}
	}
	for w := range b.ctxs {
		ctx := &b.ctxs[w]
		b.muts = append(b.muts, ctx.muts...)
		// Let go of the batch: a ctx outlives it, and would keep its records,
		// adjacency and value pages reachable while the next batch loads.
		ctx.b, ctx.haltedFlag, ctx.muts = nil, nil, ctx.muts[:0]
	}
	span.End()

	// Processed vertices stay live unless halted.
	for i, v := range b.verts {
		b.carry.SetTo(int(v), !halted[i])
	}
	return nil
}

// waveEnd returns where the wave of b.verts starting at start ends: once its
// out-edges — the sends to expect; adjacency is resident before Process
// runs — reach waveSends. The cut is a function of the graph, the active set
// and the log budget, never of the order sends arrive in.
func (b *batch) waveEnd(start int) int {
	end := start
	for sends := 0; end < len(b.verts) && sends < b.waveSends; end++ {
		if a := b.adj[b.verts[end]]; a != nil {
			sends += len(a.nbrs)
		}
	}
	return end
}

// drainSends appends the wave's buffered sends to the logs in sender order.
func (b *batch) drainSends() error {
	sent, err := b.sends.Drain(b.logSends)
	b.ss.MsgsSent += sent
	return err
}

// logSends appends one worker's sends, in order, to the message logs: each
// to its destination interval's log of the next generation, or — in the
// asynchronous model — of the current one when that interval is still to be
// processed this superstep (a forward send). Consecutive sends bound for the
// same generation go to it as one run.
func (b *batch) logSends(recs []extsort.Record) error {
	ivs := b.sendIvs[:0]
	for _, rec := range recs {
		ivs = append(ivs, int32(b.g.IntervalOf(rec.Dst)))
	}
	b.sendIvs = ivs
	forward := func(i int) bool { return b.cfg.Async && int(ivs[i]) > b.sg.LastIv }
	for start, end := 0, 0; start < len(recs); start = end {
		log, fwd := b.nextLog, forward(start)
		if fwd {
			log = b.curLog
		}
		for end = start + 1; end < len(recs) && forward(end) == fwd; end++ {
		}
		if err := log.AppendRecs(ivs[start:end], recs[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// relog makes the edge-log decisions (single-threaded; the log writer is
// not concurrent): log CSR-served vertices predicted active whose pages
// were inefficient, within the edge-log buffer budget.
func (b *batch) relog() error {
	if b.elog == nil {
		return nil
	}
	span := b.cfg.Trace.Begin("engine", "edgelog-relog")
	prevS, prevIv := b.io.SetStage(obsv.StageRelog, b.sg.FirstIv)
	defer b.io.SetStage(prevS, prevIv)
	for _, v := range b.verts {
		a := b.adj[v]
		if a == nil || a.fromElog || len(a.nbrs) == 0 || !a.pageIneff {
			continue
		}
		if !b.pred.PredictActive(v) {
			continue
		}
		if b.elog.LoggedBytes() >= b.elogBudget {
			break
		}
		if err := b.elog.LogEdges(v, a.nbrs, a.weights); err != nil {
			return err
		}
		b.ss.EdgeLogPagesWrite++ // approximate: accounted precisely at flush
	}
	span.Arg("logged_bytes", b.elog.LoggedBytes())
	span.End()
	return nil
}

// flush writes dirty value pages and aux pages back.
func (b *batch) flush() error {
	span := b.cfg.Trace.Begin("engine", "flush-values")
	if _, err := b.vb.Flush(); err != nil {
		return err
	}
	for _, ab := range b.auxBatches {
		if _, err := ab.Flush(); err != nil {
			return err
		}
	}
	span.End()
	return nil
}

// engineCtx implements vc.Context for one worker; the run keeps it across
// waves, batches and supersteps.
type engineCtx struct {
	b *batch
	w int // worker index: its bucket of b.sends

	vertex     uint32
	haltedFlag *bool
	muts       []vc.Mutation
	msgBuf     []vc.Msg // the processed vertex's messages
}

func (c *engineCtx) Superstep() int      { return c.b.step }
func (c *engineCtx) NumVertices() uint32 { return c.b.g.NumVertices() }
func (c *engineCtx) Vertex() uint32      { return c.vertex }
func (c *engineCtx) Value() uint32       { return c.b.vb.Get(c.vertex) }
func (c *engineCtx) SetValue(v uint32)   { c.b.vb.Set(c.vertex, v) }
func (c *engineCtx) VoteToHalt()         { *c.haltedFlag = true }

// ValueLane and SetValueLane implement vc.LaneContext: lane-batched
// programs address the lane-strided value slots of the processed vertex.
// Distinct (vertex, lane) slots are written by at most one worker, so the
// ValueBatch's concurrency contract holds.
func (c *engineCtx) ValueLane(lane int) uint32 { return c.b.vb.GetLane(c.vertex, lane) }

func (c *engineCtx) SetValueLane(lane int, v uint32) { c.b.vb.SetLane(c.vertex, lane, v) }

func (c *engineCtx) OutEdges() []uint32 {
	if a := c.b.adj[c.vertex]; a != nil {
		return a.nbrs
	}
	return nil
}

func (c *engineCtx) OutWeights() []uint32 {
	if a := c.b.adj[c.vertex]; a != nil {
		return a.weights
	}
	return nil
}

func (c *engineCtx) Send(dst, data uint32) { c.b.sends.Send(c.w, c.vertex, dst, data) }

func (c *engineCtx) InEdgeSources() []uint32 { return c.b.inSources[c.vertex] }

// AddEdge implements vc.Mutator: the edge appears next superstep.
func (c *engineCtx) AddEdge(src, dst, weight uint32) {
	c.muts = append(c.muts, vc.Mutation{Add: true, Src: src, Dst: dst, Weight: weight})
}

// RemoveEdge implements vc.Mutator: the removal applies next superstep.
func (c *engineCtx) RemoveEdge(src, dst uint32) {
	c.muts = append(c.muts, vc.Mutation{Src: src, Dst: dst})
}

func (c *engineCtx) Aux() []uint32 {
	if ab := c.b.auxBatches[c.b.g.IntervalOf(c.vertex)]; ab != nil {
		return ab.Get(c.vertex)
	}
	return nil
}
