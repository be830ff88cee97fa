package core

import (
	"errors"
	"sort"

	"multilogvc/internal/csr"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/sortgroup"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// batch is one sorted chunk of a fused-interval batch on its way through
// the vertex stage; each step below fills in what the next ones read — all
// of it in the run's vertexPlane.
type batch struct {
	*run
	sg *sortgroup.Batch
	ss *metrics.SuperstepStats
}

// vertexPlane is the vertex data of the batch in progress — values, out-edges,
// in-edge sources, aux state and the per-vertex flags between them — in flat
// buffers indexed by position in the batch's active set. The run owns it and
// reuses it from batch to batch, as it does the message plane's mlog buffers:
// each buffer is sized from what a batch needs and never doubled, so the plane
// holds little more than the largest batch's vertex data (bytes a batch always
// had to hold while it ran) and a steady-state batch allocates nothing per
// vertex. A batch that leaves more than run.planeKeep bytes behind — more than
// a whole interval's batch must hold anyway, and more than the budgets — takes
// them with it, and the plane dies with the run. A run on a Slot keeps its
// largest batch's buffers instead, and hands them to the slot's next run.
type vertexPlane struct {
	verts []uint32       // the active set, ascending
	vb    csr.ValueBatch // value pages
	adj   csr.Arena      // out-edges
	inAdj csr.Arena      // in-edge sources (AuxUser programs)
	// auxBatches[iv-sg.FirstIv] is interval iv's aux pages (AuxUser
	// programs); nil for an interval with no active vertex.
	auxBatches []*csr.AuxBatch

	fromElog  []bool // adjacency served by the edge log
	pageIneff []bool // any covering CSR page measured inefficient now
	halted    []bool
	ranges    [][2]int // each vertex's messages inside the batch's records

	// The active set split by adjacency source, each vertex with its position.
	logVerts, csrVerts []uint32
	logPos, csrPos     []int32
	iota               []int32 // iota[i] == i
}

// positions returns the position list of a whole active set of n vertices.
func (p *vertexPlane) positions(n int) []int32 {
	if len(p.iota) < n {
		grown := make([]int32, n)
		for i := range grown {
			grown[i] = int32(i)
		}
		p.iota = grown
	}
	return p.iota[:n]
}

// planeVertexBytes is the part of bytes that grows with a batch's vertices
// rather than with its edges or values: the three flags, the message range,
// the six vertex and position lists, and the out-edge arena's share.
const planeVertexBytes = 3 + 16 + 6*4 + csr.ArenaPositionBytes

// bytes returns the memory the plane holds on to between batches.
func (p *vertexPlane) bytes() int {
	return p.vb.Bytes() + p.adj.Bytes() + p.inAdj.Bytes() + 8*cap(p.auxBatches) +
		cap(p.fromElog) + cap(p.pageIneff) + cap(p.halted) + 16*cap(p.ranges) +
		4*(cap(p.verts)+cap(p.logVerts)+cap(p.csrVerts)+cap(p.logPos)+cap(p.csrPos)+cap(p.iota))
}

// cleared returns buf with length n and every element zero.
func cleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// processBatch runs the vertex stage over the batch's current chunk.
func (r *run) processBatch(sg *sortgroup.Batch, ss *metrics.SuperstepStats) error {
	// Everything this batch touches — value pages, adjacency, aux, and the
	// message-log evictions draining its sends triggers — is
	// vertex-processing IO on the batch's interval range. Workers issue no
	// device IO at all.
	prevS, prevIv := r.cfg.Scope.SetStage(obsv.StageVertex, sg.FirstIv)
	defer r.cfg.Scope.SetStage(prevS, prevIv)

	b := &batch{run: r, sg: sg, ss: ss}
	if !b.activeSet() {
		return nil
	}
	for _, step := range [...]func() error{
		b.loadValues, b.loadAdjacency, b.loadAux, b.processVertices, b.relog, b.flush,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	// A batch far larger than any one interval's — superstep 0 of an
	// all-active program fuses every interval, having no messages to bound
	// it — must not leave its buffers with the run. A slot's runs are short
	// and come one after another: they keep them for the next.
	if r.slot == nil && r.bytes() > r.planeKeep {
		r.vertexPlane = vertexPlane{}
	}
	return nil
}

// activeSet collects message destinations ∪ carried-live vertices in range
// and reports whether there is anything to process.
func (b *batch) activeSet() bool {
	b.verts = superstep.ActiveSet(b.verts, b.sg.Recs, b.carry, b.sg.Lo, b.sg.Hi)
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
func (b *batch) loadValues() error {
	span := b.cfg.Trace.Begin("engine", "load-values")
	span.Arg("verts", int64(len(b.verts)))
	if _, err := b.values.LoadBatch(&b.vb, b.verts); err != nil {
		return err
	}
	span.End()
	return nil
}

// byInterval calls fn once per vertex interval with the run of verts
// (ascending) it owns and their positions, in interval order.
func (b *batch) byInterval(verts []uint32, pos []int32, fn func(iv int, verts []uint32, pos []int32) error) error {
	ivs := b.g.Intervals()
	for len(verts) > 0 {
		iv := b.g.IntervalOf(verts[0])
		n := sort.Search(len(verts), func(i int) bool { return verts[i] >= ivs[iv].Hi })
		if err := fn(iv, verts[:n], pos[:n]); err != nil {
			return err
		}
		verts, pos = verts[n:], pos[n:]
	}
	return nil
}

// loadAdjacency fetches each active vertex's out-edges into the arena, from
// the edge log when it holds them and from CSR pages otherwise.
func (b *batch) loadAdjacency() error {
	span := b.cfg.Trace.Begin("engine", "load-adjacency")
	n := len(b.verts)
	b.adj.Reset(n, b.g.HasWeights())
	b.fromElog, b.pageIneff = cleared(b.fromElog, n), cleared(b.pageIneff, n)
	b.logVerts, b.logPos = b.logVerts[:0], b.logPos[:0]
	fromCSR, csrPos := b.verts, b.positions(n)
	if b.elog != nil {
		fromCSR, csrPos = b.csrVerts[:0], b.csrPos[:0]
		for i, v := range b.verts {
			if b.elog.Has(v) {
				b.logVerts, b.logPos = append(b.logVerts, v), append(b.logPos, int32(i))
			} else {
				fromCSR, csrPos = append(fromCSR, v), append(csrPos, int32(i))
			}
		}
		b.csrVerts, b.csrPos = fromCSR, csrPos
	}
	if len(b.logVerts) > 0 {
		pages, err := b.elog.Fill(b.logVerts, b.logPos, &b.adj)
		switch {
		case errors.Is(err, ssd.ErrCorruptPage):
			// Self-healing: the edge log is a redundant adjacency cache, so
			// a corrupt page costs the whole current generation — never
			// correctness. Fill batches all its page reads before it decodes
			// the first list, so no partial adjacency was delivered; reroute
			// every log-resident vertex to canonical CSR loading below.
			if err := b.elog.InvalidateCurrent(); err != nil {
				return err
			}
			b.ss.ElogHealed++
			b.logVerts = b.logVerts[:0]
			fromCSR, csrPos = b.verts, b.positions(n)
		case err != nil:
			return err
		default:
			b.ss.EdgeLogPagesRead += uint64(pages)
			for _, p := range b.logPos {
				b.fromElog[p] = true
			}
		}
	}
	if err := b.byInterval(fromCSR, csrPos, b.loadCSR); err != nil {
		return err
	}
	span.Arg("from_elog", int64(len(b.logVerts)))
	span.Arg("from_csr", int64(n-len(b.logVerts)))
	span.End()
	return nil
}

// loadCSR fetches the out-edges of verts (all in interval iv) from CSR
// pages and feeds the pages' utilization to the edge-log predictor.
func (b *batch) loadCSR(iv int, verts []uint32, pos []int32) error {
	stats, err := b.g.FillOutEdges(iv, verts, pos, &b.adj)
	if err != nil {
		return err
	}
	b.ss.ColIdxPagesRead += uint64(stats.ColIdxPages)
	if b.pred == nil {
		return nil
	}
	utils := stats.PageUtils
	b.pred.NotePageUtils(utils)
	// Mark vertices whose pages measured inefficient this superstep; the
	// edge-log decision (relog) reads this. The fill listed its pages
	// ascending, as the vertices' page ranges ascend: k only moves forward.
	k := 0
	for _, p := range pos {
		first, last := b.adj.PageRange(int(p))
		if first > last {
			continue
		}
		for k < len(utils) && utils[k].Key.Page < first {
			k++
		}
		for j := k; j < len(utils) && utils[j].Key.Page <= last; j++ {
			if b.pred.PageIneffNow(utils[j].Key) {
				b.pageIneff[p] = true
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
	b.inAdj.Reset(len(b.verts), false)
	b.auxBatches = cleared(b.auxBatches, b.sg.LastIv-b.sg.FirstIv+1)
	err := b.byInterval(b.verts, b.positions(len(b.verts)), func(iv int, verts []uint32, pos []int32) error {
		ab, _, err := b.aux.LoadBatch(iv, verts)
		if err != nil {
			return err
		}
		b.auxBatches[iv-b.sg.FirstIv] = ab
		_, err = b.g.FillInEdges(iv, verts, pos, &b.inAdj)
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
	b.ranges = superstep.MsgRanges(b.ranges, b.verts, recs)
	ranges := b.ranges
	span := b.cfg.Trace.Begin("engine", "process-vertices")
	span.Arg("verts", int64(len(b.verts)))
	b.halted = cleared(b.halted, len(b.verts))
	halted := b.halted
	for start, end := 0, 0; start < len(b.verts); start = end {
		var sends int
		end, sends = b.waveEnd(start)
		work := sends + ranges[end-1][1] - ranges[start][0]
		if err := superstep.ForEach(b.cfg.Workers, end-start, work, func(w, lo, hi int) error {
			ctx := &b.ctxs[w]
			ctx.b, ctx.w = b, w
			for i := start + lo; i < start+hi; i++ {
				msgs := recs[ranges[i][0]:ranges[i][1]]
				// The combiner folds in place, into the vertex's first record:
				// vertex ranges are disjoint, so no other worker reads them,
				// and nothing reads the batch's records after the vertex stage.
				if b.combiner != nil && len(msgs) > 1 {
					acc := msgs[0].Data
					for _, m := range msgs[1:] {
						acc = b.combiner.Combine(acc, m.Data)
					}
					msgs[0].Data = acc
					msgs = msgs[:1]
				}
				ctx.pos, ctx.vertex = i, b.verts[i]
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
		// Let go of the batch: a ctx outlives it, and would keep its records
		// reachable while the next batch loads.
		ctx.b, ctx.muts = nil, ctx.muts[:0]
	}
	span.End()

	// Processed vertices stay live unless halted.
	for i, v := range b.verts {
		b.carry.SetTo(int(v), !halted[i])
	}
	return nil
}

// waveEnd returns where the wave of b.verts starting at start ends, and the
// sends it expects: its out-edges, since adjacency is resident before
// Process runs. The wave ends once they reach waveSends. The cut is a
// function of the graph, the active set and the log budget, never of the
// order sends arrive in.
func (b *batch) waveEnd(start int) (end, sends int) {
	for end = start; end < len(b.verts) && sends < b.waveSends; end++ {
		sends += b.adj.Degree(end)
	}
	return end, sends
}

// drainSends appends the wave's buffered sends to the logs in sender order.
// MsgsSent counts the records that reached a log, on the error path too.
func (b *batch) drainSends() error {
	sent, err := b.sends.Drain(b.logSends)
	b.ss.MsgsSent += sent
	return err
}

// logSends appends one worker's sends, in order, to the message logs: each
// to its destination interval's log of the next generation, or — in the
// asynchronous model — of the current one when that interval is still to be
// processed this superstep (a forward send). Consecutive sends bound for the
// same generation go to it as one run. It returns how many records were
// logged, which falls short of len(recs) only beside an error.
func (b *batch) logSends(recs []vc.Msg) (int, error) {
	ivs := b.sendIvs[:0]
	for _, rec := range recs {
		ivs = append(ivs, int32(b.g.IntervalOf(rec.Dst)))
	}
	b.sendIvs = ivs
	if !b.cfg.Async {
		return b.nextLog.AppendRecs(ivs, recs)
	}
	forward := func(i int) bool { return int(ivs[i]) > b.sg.LastIv }
	for start, end := 0, 0; start < len(recs); start = end {
		log, fwd := b.nextLog, forward(start)
		if fwd {
			log = b.curLog
		}
		for end = start + 1; end < len(recs) && forward(end) == fwd; end++ {
		}
		if n, err := log.AppendRecs(ivs[start:end], recs[start:end]); err != nil {
			return start + n, err
		}
	}
	return len(recs), nil
}

// relog makes the edge-log decisions (single-threaded; the log writer is
// not concurrent): log CSR-served vertices predicted active whose pages
// were inefficient, within the edge-log buffer budget.
func (b *batch) relog() error {
	if b.elog == nil {
		return nil
	}
	span := b.cfg.Trace.Begin("engine", "edgelog-relog")
	prevS, prevIv := b.cfg.Scope.SetStage(obsv.StageRelog, b.sg.FirstIv)
	defer b.cfg.Scope.SetStage(prevS, prevIv)
	for i, v := range b.verts {
		if b.fromElog[i] || !b.pageIneff[i] || b.adj.Degree(i) == 0 {
			continue
		}
		if !b.pred.PredictActive(v) {
			continue
		}
		if b.elog.LoggedBytes() >= b.elogBudget {
			break
		}
		if err := b.elog.LogEdges(v, b.adj.Edges(i), b.adj.Weights(i)); err != nil {
			return err
		}
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
	if b.aux != nil {
		for _, ab := range b.auxBatches {
			if ab == nil {
				continue
			}
			if _, err := ab.Flush(); err != nil {
				return err
			}
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

	pos    int // the processed vertex's position in b.verts
	vertex uint32
	muts   []vc.Mutation
}

func (c *engineCtx) Superstep() int      { return c.b.step }
func (c *engineCtx) NumVertices() uint32 { return c.b.g.NumVertices() }
func (c *engineCtx) Vertex() uint32      { return c.vertex }
func (c *engineCtx) Value() uint32       { return c.b.vb.Get(c.vertex) }
func (c *engineCtx) SetValue(v uint32)   { c.b.vb.Set(c.vertex, v) }
func (c *engineCtx) VoteToHalt()         { c.b.halted[c.pos] = true }

// ValueLane and SetValueLane implement vc.LaneContext: lane-batched
// programs address the lane-strided value slots of the processed vertex.
// Distinct (vertex, lane) slots are written by at most one worker, so the
// ValueBatch's concurrency contract holds.
func (c *engineCtx) ValueLane(lane int) uint32 { return c.b.vb.GetLane(c.vertex, lane) }

func (c *engineCtx) SetValueLane(lane int, v uint32) { c.b.vb.SetLane(c.vertex, lane, v) }

func (c *engineCtx) OutEdges() []uint32   { return c.b.adj.Edges(c.pos) }
func (c *engineCtx) OutWeights() []uint32 { return c.b.adj.Weights(c.pos) }

func (c *engineCtx) Send(dst, data uint32) { c.b.sends.Send(c.w, c.vertex, dst, data) }

func (c *engineCtx) InEdgeSources() []uint32 {
	if c.b.aux == nil {
		return nil
	}
	return c.b.inAdj.Edges(c.pos)
}

// AddEdge implements vc.Mutator: the edge appears next superstep.
func (c *engineCtx) AddEdge(src, dst, weight uint32) {
	c.muts = append(c.muts, vc.Mutation{Add: true, Src: src, Dst: dst, Weight: weight})
}

// RemoveEdge implements vc.Mutator: the removal applies next superstep.
func (c *engineCtx) RemoveEdge(src, dst uint32) {
	c.muts = append(c.muts, vc.Mutation{Src: src, Dst: dst})
}

func (c *engineCtx) Aux() []uint32 {
	if c.b.aux == nil {
		return nil
	}
	return c.b.auxBatches[c.b.g.IntervalOf(c.vertex)-c.b.sg.FirstIv].Get(c.vertex)
}
