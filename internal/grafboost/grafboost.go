// Package grafboost is the GraFBoost baseline engine (Jun et al., the
// paper's [11]) reimplemented in software on the shared device model: a
// single append-only message log per superstep, externally sorted by
// destination at the start of the next superstep with the program's
// combine operator applied during run generation and merge.
//
// Two properties from the paper are reproduced:
//
//   - GraFBoost requires associative/commutative updates; Run rejects
//     programs without a vc.Combiner unless Adapted is set, which keeps
//     every record through the external sort (the "adapted GraFBoost"
//     the paper builds for graph coloring, §VIII).
//   - GraFBoost does not load only active graph data: every superstep
//     streams the whole out-CSR (and, for aux programs, in-CSR and aux
//     state) from the device.
package grafboost

import (
	"context"
	"encoding/binary"
	"fmt"

	"multilogvc/internal/bitset"
	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/superstep"
	"multilogvc/internal/vc"
)

// Config tunes the baseline.
type Config struct {
	// MemoryBudget bounds the external sort's in-memory run size;
	// defaults to 64 MiB.
	MemoryBudget int64
	// MaxSupersteps defaults to 15.
	MaxSupersteps int
	// Workers is the most vertex-processing workers a wave may use;
	// defaults to runtime.GOMAXPROCS(0). A wave forks fewer, down to none,
	// when its expected work is too small to share (superstep.ForEach).
	Workers int
	// Adapted keeps all messages through the external sort instead of
	// combining, enabling non-combinable programs at high sort cost.
	Adapted bool
	// StopAfter ends the run after the superstep for which it returns
	// true.
	StopAfter func(superstep int, cumProcessed uint64) bool
	// Trace, when non-nil, receives one "superstep" span per superstep.
	Trace *obsv.Trace
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 64 << 20
	}
	c.MaxSupersteps, c.Workers = superstep.Defaults(c.MaxSupersteps, c.Workers)
	return c
}

// Engine is a single-log external-sort engine over a CSR graph. It
// charges all its IO to an IOScope of its own: g is the graph viewed
// through sc.
type Engine struct {
	sc  *ssd.IOScope
	g   *csr.Graph
	cfg Config
}

// New creates the engine over an opened CSR graph (shared with the
// MultiLogVC engine, so graph IO costs are comparable).
func New(g *csr.Graph, cfg Config) *Engine {
	sc := ssd.NewScope()
	return &Engine{sc: sc, g: g.View(sc), cfg: cfg.withDefaults()}
}

// ErrNeedsCombiner is returned for non-combinable programs without
// Adapted mode — GraFBoost's documented limitation.
var ErrNeedsCombiner = fmt.Errorf("grafboost: program has no combiner (set Adapted to force single-log operation)")

// Run executes prog to convergence or the superstep cap.
func (e *Engine) Run(prog vc.Program) (*superstep.Result, error) {
	return e.RunCtx(context.Background(), prog)
}

// RunCtx is Run bounded by a context: once it is cancelled or past its
// deadline the run stops at the next superstep boundary with the context's
// error wrapped (the baseline has no checkpoint machinery), and the
// device's retry backoff gives up early.
func (e *Engine) RunCtx(ctx context.Context, prog vc.Program) (*superstep.Result, error) {
	cfg := e.cfg
	g := e.g
	dev := g.Device()
	n := g.NumVertices()
	name := g.Name()

	combiner, hasCombiner := prog.(vc.Combiner)
	if !hasCombiner && !cfg.Adapted {
		return nil, ErrNeedsCombiner
	}
	r := &run{eng: e, prog: prog, sends: superstep.NewSendBuffer(cfg.Workers, n)}
	engine := "grafboost-adapted"
	if !cfg.Adapted {
		engine = "grafboost"
		r.combine = combiner.Combine
	}
	loop := superstep.Begin(ctx, e.sc, engine, prog.Name(), name)
	defer loop.End()

	buildS, buildIv := e.sc.SetStage(obsv.StageBuild, -1)
	values, err := csr.CreateValuesFunc(dev, name+".gb.values", n, func(v uint32) uint32 {
		return prog.InitValue(v, n)
	})
	if auxUser, isAux := prog.(vc.AuxUser); isAux && err == nil {
		r.aux, err = csr.CreateAux(g, prog.Name()+".gb", auxUser.AuxInit(n))
	}
	e.sc.SetStage(buildS, buildIv)
	if err != nil {
		return nil, err
	}

	if r.logF, err = dev.OpenOrCreate(name + ".gb.log"); err != nil {
		return nil, err
	}
	if err := r.logF.Truncate(); err != nil {
		return nil, err
	}
	r.logW = ssd.NewWriter(r.logF)
	r.values = values
	r.carry = superstep.InitialActive(prog.InitActive(n), n)

	loop.Values = values
	loop.MaxSupersteps = cfg.MaxSupersteps
	loop.StopAfter = cfg.StopAfter
	loop.Cache = dev.Cache()
	loop.Trace = cfg.Trace
	return loop.Run(r)
}

// run is the state of one execution: the value and aux files, the carried
// live set, and the single message log with its record count.
type run struct {
	eng     *Engine
	prog    vc.Program
	combine func(a, b uint32) uint32 // nil in Adapted mode
	values  *csr.Values
	aux     *csr.Aux // nil unless prog is a vc.AuxUser
	carry   *bitset.Set

	logF     *ssd.File
	logW     *ssd.Writer
	logCount uint64
	sorted   []extsort.Record      // the superstep's messages not yet consumed
	sends    *superstep.SendBuffer // the interval's sends on their way to the log
}

func (r *run) Pending() bool { return r.carry.Any() || r.logCount > 0 }

// Superstep sorts the log the previous superstep wrote, then streams the
// whole graph interval by interval (GraFBoost cannot restrict loads to the
// active set), appending sends to a fresh log.
func (r *run) Superstep(_ context.Context, step int, ss *metrics.SuperstepStats) error {
	var err error
	if r.sorted, err = r.sortLog(); err != nil {
		return err
	}
	ss.MsgsDelivered = uint64(len(r.sorted))

	if err := r.logF.Truncate(); err != nil {
		return err
	}
	r.logW = ssd.NewWriter(r.logF)
	r.logCount = 0

	for iv := range r.eng.g.Intervals() {
		ir := &ivRun{run: r, iv: iv, step: step, ss: ss}
		if err := ir.process(); err != nil {
			return err
		}
	}
	ss.MsgsSent = r.logCount
	return nil
}

// sortLog externally sorts the single log into destination order, applying
// the combine operator during run generation and merge. GraFBoost keeps
// one global log, so the sort phase carries no interval attribution.
func (r *run) sortLog() ([]extsort.Record, error) {
	prevS, prevIv := r.eng.sc.SetStage(obsv.StageSortGroup, -1)
	defer r.eng.sc.SetStage(prevS, prevIv)
	if err := r.logW.Close(); err != nil {
		return nil, err
	}
	readLog := func(yield func(extsort.Record) error) error {
		rd := ssd.NewReader(r.logF, 64)
		var rec [extsort.RecordBytes]byte
		for i := uint64(0); i < r.logCount; i++ {
			if err := rd.ReadFull(rec[:]); err != nil {
				return err
			}
			if err := yield(extsort.Record{
				Dst:  binary.LittleEndian.Uint32(rec[0:]),
				Src:  binary.LittleEndian.Uint32(rec[4:]),
				Data: binary.LittleEndian.Uint32(rec[8:]),
			}); err != nil {
				return err
			}
		}
		return nil
	}
	var sorted []extsort.Record
	_, err := extsort.Sort(r.eng.g.Device(), r.eng.g.Name()+".gb.sort", readLog, r.eng.cfg.MemoryBudget,
		r.combine, func(rec extsort.Record) error {
			sorted = append(sorted, rec)
			return nil
		})
	return sorted, err
}

// appendLog writes message records to the next superstep's log and returns
// how many it wrote in full.
func (r *run) appendLog(recs []extsort.Record) (int, error) {
	for i, rec := range recs {
		for _, word := range [3]uint32{rec.Dst, rec.Src, rec.Data} {
			if err := r.logW.WriteU32(word); err != nil {
				return i, err
			}
		}
		r.logCount++
	}
	return len(recs), nil
}

// ivRun is the run plus the state of one interval's processing.
type ivRun struct {
	*run
	iv   int
	step int
	ss   *metrics.SuperstepStats

	adj       map[uint32][]uint32
	adjW      map[uint32][]uint32 // nil for unweighted graphs
	vb        *csr.ValueBatch
	auxBatch  *csr.AuxBatch // nil unless prog is a vc.AuxUser
	inSources map[uint32][]uint32
}

func (ir *ivRun) process() error {
	e, g := ir.eng, ir.eng.g
	interval := g.Intervals()[ir.iv]
	// The whole-graph streaming scan, value loads, and message-log appends
	// are vertex-processing IO on this interval.
	prevS, prevIv := e.sc.SetStage(obsv.StageVertex, ir.iv)
	defer e.sc.SetStage(prevS, prevIv)

	if err := ir.loadAdjacency(); err != nil {
		return err
	}
	// This interval's messages from the sorted stream.
	n := 0
	for n < len(ir.sorted) && ir.sorted[n].Dst < interval.Hi {
		n++
	}
	msgs := ir.sorted[:n]
	ir.sorted = ir.sorted[n:]

	verts := superstep.ActiveSet(nil, msgs, ir.carry, interval.Lo, interval.Hi)
	if len(verts) == 0 {
		return nil
	}
	ir.ss.Active += uint64(len(verts))
	var err error
	if ir.vb, _, err = ir.values.LoadForVerts(verts); err != nil {
		return err
	}
	if ir.aux != nil {
		if ir.auxBatch, _, err = ir.aux.LoadBatch(ir.iv, verts); err != nil {
			return err
		}
		ir.inSources = make(map[uint32][]uint32)
		if _, err := g.LoadInEdges(ir.iv, verts, func(v uint32, srcs []uint32) {
			ir.inSources[v] = append(make([]uint32, 0, len(srcs)), srcs...)
		}); err != nil {
			return err
		}
	}

	// Process vertices in parallel. Sends buffer per worker and reach the
	// log in vertex order once the pool has joined: the log's record order
	// decides the external sort's run boundaries, so it must not depend on
	// the goroutine schedule.
	ranges := superstep.MsgRanges(nil, verts, msgs)
	halted := make([]bool, len(verts))
	work := len(msgs)
	for _, v := range verts {
		work += len(ir.adj[v])
	}
	if err := superstep.ForEach(e.cfg.Workers, len(verts), work, func(w, lo, hi int) error {
		ctx := &gbCtx{ir: ir, w: w}
		var msgBuf []vc.Msg
		for i := lo; i < hi; i++ {
			msgBuf = superstep.AppendMsgs(msgBuf[:0], msgs[ranges[i][0]:ranges[i][1]])
			ctx.vertex = verts[i]
			ctx.haltedFlag = &halted[i]
			ir.prog.Process(ctx, msgBuf)
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := ir.sends.Drain(ir.appendLog); err != nil {
		return err
	}

	for i, v := range verts {
		ir.carry.SetTo(int(v), !halted[i])
	}
	if _, err := ir.vb.Flush(); err != nil {
		return err
	}
	if ir.auxBatch != nil {
		if _, err := ir.auxBatch.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// loadAdjacency streams the interval's full adjacency (whole-graph scan).
func (ir *ivRun) loadAdjacency() error {
	g := ir.eng.g
	interval := g.Intervals()[ir.iv]
	allVerts := make([]uint32, 0, interval.Len())
	for v := interval.Lo; v < interval.Hi; v++ {
		allVerts = append(allVerts, v)
	}
	ir.adj = make(map[uint32][]uint32, len(allVerts))
	if g.HasWeights() {
		ir.adjW = make(map[uint32][]uint32, len(allVerts))
	}
	_, err := g.LoadOutEdgesFull(ir.iv, allVerts, func(v uint32, nbrs, weights []uint32, _, _ int32) {
		ir.adj[v] = append(make([]uint32, 0, len(nbrs)), nbrs...)
		if ir.adjW != nil {
			ir.adjW[v] = append(make([]uint32, 0, len(weights)), weights...)
		}
	})
	return err
}

// gbCtx implements vc.Context for one worker.
type gbCtx struct {
	ir *ivRun

	vertex     uint32
	haltedFlag *bool
	w          int // worker index: its bucket of ir.sends
}

func (c *gbCtx) Superstep() int          { return c.ir.step }
func (c *gbCtx) NumVertices() uint32     { return c.ir.eng.g.NumVertices() }
func (c *gbCtx) Vertex() uint32          { return c.vertex }
func (c *gbCtx) Value() uint32           { return c.ir.vb.Get(c.vertex) }
func (c *gbCtx) SetValue(v uint32)       { c.ir.vb.Set(c.vertex, v) }
func (c *gbCtx) VoteToHalt()             { *c.haltedFlag = true }
func (c *gbCtx) OutEdges() []uint32      { return c.ir.adj[c.vertex] }
func (c *gbCtx) OutWeights() []uint32    { return c.ir.adjW[c.vertex] }
func (c *gbCtx) InEdgeSources() []uint32 { return c.ir.inSources[c.vertex] }
func (c *gbCtx) Send(dst, data uint32)   { c.ir.sends.Send(c.w, c.vertex, dst, data) }
func (c *gbCtx) Aux() []uint32 {
	if c.ir.auxBatch == nil {
		return nil
	}
	return c.ir.auxBatch.Get(c.vertex)
}
