// Package graphchi is the GraphChi baseline engine (Kyrola et al., the
// paper's comparison system), reimplemented over the same device model and
// vertex-centric contract as MultiLogVC.
//
// It follows the parallel-sliding-windows design: to process vertex
// interval k it loads shard k in full (all in-edges of the interval) plus
// the sliding-window block of interval k inside every other shard (the
// interval's out-edges), processes the interval's vertices, and writes
// everything back. Messages travel as edge values. The decisive property
// the paper measures is reproduced exactly: even when one vertex of an
// interval is active, the whole shard is loaded — and with real active
// sets, effectively every shard is loaded every superstep.
//
// Execution is synchronous (two value slots per edge, see internal/shard)
// so results are bit-identical to the reference engine and MultiLogVC.
package graphchi

import (
	"context"
	"sort"

	"multilogvc/internal/bitset"
	"multilogvc/internal/csr"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/shard"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// Config tunes the baseline engine.
type Config struct {
	// MaxSupersteps defaults to 15.
	MaxSupersteps int
	// Workers is the most vertex-processing workers a wave may use;
	// defaults to runtime.GOMAXPROCS(0). A wave forks fewer, down to none,
	// when its expected work is too small to share (superstep.ForEach).
	Workers int
	// StopAfter, when non-nil, ends the run after the superstep for which
	// it returns true (same contract as the MultiLogVC engine).
	StopAfter func(superstep int, cumProcessed uint64) bool
	// Trace, when non-nil, receives one "superstep" span per superstep.
	Trace *obsv.Trace
}

func (c Config) withDefaults() Config {
	c.MaxSupersteps, c.Workers = superstep.Defaults(c.MaxSupersteps, c.Workers)
	return c
}

// Engine is a GraphChi-style shard engine. It charges all its IO to an
// IOScope of its own: g is the graph viewed through that scope.
type Engine struct {
	sc  *ssd.IOScope
	g   *csr.Graph
	ivs []csr.Interval
	n   uint32
	cfg Config
}

// New creates the engine over an opened CSR graph. Its intervals are the
// CSR's, so every engine processes identical vertex groupings; shards are
// built per run from the in-CSR (edge values are program state), so a run
// sees the graph as it is then, pending deltas included.
func New(g *csr.Graph, cfg Config) *Engine {
	sc := ssd.NewScope()
	return &Engine{sc: sc, g: g.View(sc), ivs: g.Intervals(), n: g.NumVertices(), cfg: cfg.withDefaults()}
}

// Run executes prog to convergence or the superstep cap.
func (e *Engine) Run(prog vc.Program) (*superstep.Result, error) {
	return e.RunCtx(context.Background(), prog)
}

// RunCtx is Run bounded by a context: once it is cancelled or past its
// deadline the run stops at the next superstep boundary with the context's
// error wrapped (the baseline has no checkpoint machinery), and the
// device's retry backoff gives up early.
func (e *Engine) RunCtx(ctx context.Context, prog vc.Program) (*superstep.Result, error) {
	dev, name := e.g.Device(), e.g.Name()
	loop := superstep.Begin(ctx, e.sc, "graphchi", prog.Name(), name)
	defer loop.End()

	auxUser, isAux := prog.(vc.AuxUser)
	initVal := uint32(0)
	if isAux {
		initVal = auxUser.AuxInit(e.n)
	}
	// Shards are program state (edge values); build fresh per run from the
	// in-CSR. Setup IO (the in-edge reads and the shard writes) is excluded
	// from superstep accounting, mirroring how the paper reports per-run
	// execution times on preformatted graphs.
	prevS, prevIv := e.sc.SetStage(obsv.StageBuild, -1)
	store, err := shard.Build(e.g, name+".gc", initVal)
	if err != nil {
		e.sc.SetStage(prevS, prevIv)
		return nil, err
	}
	defer store.Remove()

	values, err := csr.CreateValuesFunc(dev, name+".gc.values", e.n, func(v uint32) uint32 {
		return prog.InitValue(v, e.n)
	})
	e.sc.SetStage(prevS, prevIv)
	if err != nil {
		return nil, err
	}

	loop.Values = values
	loop.MaxSupersteps = e.cfg.MaxSupersteps
	loop.StopAfter = e.cfg.StopAfter
	loop.Cache = dev.Cache()
	loop.Trace = e.cfg.Trace
	return loop.Run(&run{
		eng: e, prog: prog, store: store, values: values, isAux: isAux,
		active: superstep.InitialActive(prog.InitActive(e.n), e.n),
		sends:  superstep.NewSendBuffer(e.cfg.Workers, e.n),
	})
}

// run is the state of one execution: the shard store, the value file, the
// live set and the interval's buffered sends.
type run struct {
	eng    *Engine
	prog   vc.Program
	store  *shard.Store
	values *csr.Values
	isAux  bool
	active *bitset.Set
	sends  *superstep.SendBuffer
}

func (r *run) Pending() bool { return r.active.Any() }

// Superstep slides the window over every interval with a live vertex.
func (r *run) Superstep(_ context.Context, step int, ss *metrics.SuperstepStats) error {
	e := r.eng
	nextActive := bitset.New(int(e.n))
	halted := bitset.New(int(e.n))
	for k, iv := range e.ivs {
		// GraphChi can skip a shard only when the whole interval is
		// inactive; aux programs need every shard's copy-forward to
		// keep edge state coherent, so they never skip.
		if !r.isAux && !r.active.AnyInRange(int(iv.Lo), int(iv.Hi)) {
			continue
		}
		ir := &intervalRun{run: r, k: k, p: step % 2, step: step, nextActive: nextActive, halted: halted, ss: ss}
		if err := ir.process(); err != nil {
			return err
		}
	}
	// Next superstep's active set: message receivers plus processed
	// vertices that did not halt. A message reactivates a vertex even
	// if it voted to halt this superstep.
	r.active.AndNot(halted)
	nextActive.Or(r.active)
	r.active = nextActive
	return nil
}

// intervalRun is the run plus the state of one interval's processing; each
// step of process fills in what the next ones read.
type intervalRun struct {
	*run
	k          int
	p          int // which of the two per-edge value slots is current
	step       int
	nextActive *bitset.Set
	halted     *bitset.Set
	ss         *metrics.SuperstepStats

	recs       []shard.Record      // shard k in full
	inEdges    map[uint32][]int    // dst -> indices into recs, source-sorted
	msgs       map[uint32][]vc.Msg // this superstep's messages by destination
	windows    []*shard.Window     // interval k's block inside every other shard
	outEdges   map[uint32][]uint32
	outWeights map[uint32][]uint32 // nil for unweighted graphs
	vb         *csr.ValueBatch
}

func (ir *intervalRun) process() error {
	e := ir.eng
	iv := e.ivs[ir.k]
	// All shard and value IO for this interval is vertex-processing work in
	// GraphChi's PSW model.
	prevS, prevIv := e.sc.SetStage(obsv.StageVertex, ir.k)
	defer e.sc.SetStage(prevS, prevIv)

	if err := ir.loadShard(); err != nil {
		return err
	}
	if err := ir.loadWindows(); err != nil {
		return err
	}
	// The active vertices of this interval (messages travel as edge values,
	// so there is no record slice to merge in).
	verts := superstep.ActiveSet(nil, nil, ir.active, iv.Lo, iv.Hi)
	if len(verts) == 0 && !ir.isAux {
		return nil
	}
	ir.ss.Active += uint64(len(verts))
	var err error
	if ir.vb, _, err = ir.values.LoadForVerts(verts); err != nil {
		return err
	}

	// Process vertices in parallel; sends buffer per worker and apply
	// sequentially afterwards (edge records are shared state).
	haltedFlags := make([]bool, len(verts))
	delivered, sends := 0, 0
	for _, v := range verts {
		delivered += len(ir.msgs[v])
		sends += len(ir.outEdges[v])
	}
	if err := superstep.ForEach(e.cfg.Workers, len(verts), delivered+sends, func(w, lo, hi int) error {
		ctx := &chiCtx{ir: ir, w: w}
		for i := lo; i < hi; i++ {
			ctx.vertex = verts[i]
			ctx.haltedFlag = &haltedFlags[i]
			ctx.prepare()
			ir.prog.Process(ctx, ir.msgs[verts[i]])
			ctx.persistAux()
		}
		return nil
	}); err != nil {
		return err
	}
	for i, v := range verts {
		ir.halted.SetTo(int(v), haltedFlags[i])
	}
	ir.ss.MsgsDelivered += uint64(delivered)
	if err := ir.applySends(); err != nil {
		return err
	}
	return ir.writeBack()
}

// loadShard loads shard k in full (the whole-shard cost the paper
// measures), copies edge values forward, and indexes the records.
func (ir *intervalRun) loadShard() (err error) {
	if ir.recs, err = ir.store.LoadShard(ir.k); err != nil {
		return err
	}
	// Copy-forward: slots for the next superstep start from the current
	// value unless a message already arrived there.
	p := ir.p
	otherFlag := uint32(shard.FlagMsg0 << (1 - p))
	curFlag := uint32(shard.FlagMsg0 << p)
	// Index in-edges by destination (preserving source-sorted order) and
	// extract this superstep's messages.
	ir.inEdges = make(map[uint32][]int)
	ir.msgs = make(map[uint32][]vc.Msg)
	for i := range ir.recs {
		r := &ir.recs[i]
		if r.Flags&otherFlag == 0 {
			r.Val[1-p] = r.Val[p]
		}
		ir.inEdges[r.Dst] = append(ir.inEdges[r.Dst], i)
		if r.Flags&curFlag != 0 {
			ir.msgs[r.Dst] = append(ir.msgs[r.Dst], vc.Msg{Dst: r.Dst, Src: r.Src, Data: r.Val[p]})
			r.Flags &^= curFlag // consumed
		}
	}
	return nil
}

// loadWindows loads the sliding windows holding this interval's out-edges
// (the self-window is served from the in-memory shard records) and
// assembles the per-vertex out-edge lists.
func (ir *intervalRun) loadWindows() error {
	e := ir.eng
	iv := e.ivs[ir.k]
	ir.windows = make([]*shard.Window, len(e.ivs))
	ir.outEdges = make(map[uint32][]uint32)
	if e.g.HasWeights() {
		ir.outWeights = make(map[uint32][]uint32)
	}
	// Destination intervals ascend, so each vertex's out-edge list is
	// sorted by destination, matching the CSR engines — programs that index
	// into OutEdges (random walk) depend on a consistent order.
	for j := range e.ivs {
		block := ir.recs // self block
		if j != ir.k {
			w, err := ir.store.LoadWindow(j, ir.k)
			if err != nil {
				return err
			}
			ir.windows[j] = w
			block = w.Records()
		}
		for i := range block {
			r := &block[i]
			if r.Src >= iv.Lo && r.Src < iv.Hi {
				ir.outEdges[r.Src] = append(ir.outEdges[r.Src], r.Dst)
				if ir.outWeights != nil {
					ir.outWeights[r.Src] = append(ir.outWeights[r.Src], r.Weight)
				}
			}
		}
	}
	return nil
}

// applySends writes each buffered message into its out-edge record (self
// block or window) and activates the destination.
func (ir *intervalRun) applySends() error {
	otherFlag := uint32(shard.FlagMsg0 << (1 - ir.p))
	sent, err := ir.sends.Drain(func(sends []vc.Msg) (int, error) {
		for _, s := range sends {
			ir.nextActive.Set(int(s.Dst))
			var rec *shard.Record
			if j := ir.eng.g.IntervalOf(s.Dst); j == ir.k {
				rec = findRecord(ir.recs, ir.inEdges, s.Src, s.Dst)
			} else if w := ir.windows[j]; w != nil {
				rec = w.Find(s.Src, s.Dst)
			}
			// A message along a non-existent edge finds no record: GraphChi
			// cannot deliver it; our programs never do this.
			if rec != nil {
				rec.Val[1-ir.p] = s.Data
				rec.Flags |= otherFlag
			}
		}
		return len(sends), nil
	})
	ir.ss.MsgsSent += sent
	return err
}

func (ir *intervalRun) writeBack() error {
	if err := ir.store.StoreShard(ir.k, ir.recs); err != nil {
		return err
	}
	for _, w := range ir.windows {
		if w != nil {
			if err := w.WriteBack(); err != nil {
				return err
			}
		}
	}
	_, err := ir.vb.Flush()
	return err
}

// findRecord locates (src, dst) among shard k's records using the per-dst
// index (records per dst are source-sorted).
func findRecord(recs []shard.Record, inEdges map[uint32][]int, src, dst uint32) *shard.Record {
	idxs := inEdges[dst]
	i := sort.Search(len(idxs), func(i int) bool { return recs[idxs[i]].Src >= src })
	if i < len(idxs) && recs[idxs[i]].Src == src {
		return &recs[idxs[i]]
	}
	return nil
}

// chiCtx implements vc.Context for the GraphChi engine.
type chiCtx struct {
	ir *intervalRun

	vertex     uint32
	haltedFlag *bool
	w          int // worker index: its bucket of ir.sends

	srcsBuf []uint32
	auxBuf  []uint32
	hasAux  bool
}

// prepare assembles the aux view (in-edge sources + current edge values)
// for AuxUser programs.
func (c *chiCtx) prepare() {
	c.hasAux = false
	if !c.ir.isAux {
		return
	}
	idxs := c.ir.inEdges[c.vertex]
	c.srcsBuf = c.srcsBuf[:0]
	c.auxBuf = c.auxBuf[:0]
	for _, i := range idxs {
		c.srcsBuf = append(c.srcsBuf, c.ir.recs[i].Src)
		c.auxBuf = append(c.auxBuf, c.ir.recs[i].Val[c.ir.p])
	}
	c.hasAux = true
}

// persistAux writes aux mutations into the next-superstep value slots
// (unless a fresh message already claimed the slot).
func (c *chiCtx) persistAux() {
	if !c.hasAux {
		return
	}
	p := c.ir.p
	otherFlag := uint32(shard.FlagMsg0 << (1 - p))
	for j, i := range c.ir.inEdges[c.vertex] {
		r := &c.ir.recs[i]
		if r.Flags&otherFlag == 0 && r.Val[1-p] != c.auxBuf[j] {
			r.Val[1-p] = c.auxBuf[j]
		}
	}
}

func (c *chiCtx) Superstep() int       { return c.ir.step }
func (c *chiCtx) NumVertices() uint32  { return c.ir.eng.n }
func (c *chiCtx) Vertex() uint32       { return c.vertex }
func (c *chiCtx) Value() uint32        { return c.ir.vb.Get(c.vertex) }
func (c *chiCtx) SetValue(v uint32)    { c.ir.vb.Set(c.vertex, v) }
func (c *chiCtx) VoteToHalt()          { *c.haltedFlag = true }
func (c *chiCtx) OutEdges() []uint32   { return c.ir.outEdges[c.vertex] }
func (c *chiCtx) OutWeights() []uint32 { return c.ir.outWeights[c.vertex] }
func (c *chiCtx) InEdgeSources() []uint32 {
	if !c.hasAux {
		return nil
	}
	return c.srcsBuf
}
func (c *chiCtx) Aux() []uint32 {
	if !c.hasAux {
		return nil
	}
	return c.auxBuf
}

func (c *chiCtx) Send(dst, data uint32) { c.ir.sends.Send(c.w, c.vertex, dst, data) }
