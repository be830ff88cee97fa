// Package edgelog implements the edge-log optimizer of §V-C.
//
// When the graph loader fetches a column-index page to serve one active
// vertex's out-edges, inactive vertices' edges co-resident on that page
// waste read bandwidth. The optimizer re-logs the out-edges of vertices
// that are (a) predicted active in the next superstep — history-based
// prediction over the last N supersteps, N = 1 — and (b) currently served
// from pages measured under the utilization threshold (default 10%). The
// next superstep reads those edge lists densely from the log instead of
// sparsely from the CSR pages.
package edgelog

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"multilogvc/internal/bitset"
	"multilogvc/internal/csr"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// DefaultThreshold is the page-utilization fraction below which a touched
// page counts as inefficiently used (>0% and <10% in the paper).
const DefaultThreshold = 0.10

// Predictor tracks vertex-activity history and page utilization, and
// decides which vertices' edges are worth logging.
type Predictor struct {
	threshold float64
	pageSize  int

	prevActive *bitset.Set // active in superstep s-1
	currActive *bitset.Set // active in superstep s (being filled)

	prevIneff pageSet // pages inefficient in s-1 (the prediction for s)
	currIneff pageSet // pages inefficient in s (being measured)
	currSeen  pageSet // pages touched in s

	// Accuracy accounting for the superstep being measured (Fig 9).
	correct int // touched pages inefficient in s that were predicted (inefficient in s-1)
}

// pageSet is a set of column-index pages: one bitmap per (side, interval) —
// a colidx file's page numbers are dense — with the population count beside
// it. A bitmap grows when a page past its end is added (a merge can lengthen
// a colidx file) and is kept across supersteps, so a set costs one bit per
// page up to the highest page of each file it ever held and a steady-state
// superstep allocates nothing.
type pageSet struct {
	rows [2][]bitset.Set // rows[side][interval], bit = page
	n    int
}

func (s *pageSet) has(k csr.PageKey) bool {
	return k.Side < 2 && uint(k.Interval) < uint(len(s.rows[k.Side])) && k.Page >= 0 &&
		s.rows[k.Side][k.Interval].Has(int(k.Page))
}

// add inserts k and reports whether it was absent. A key no colidx page can
// have (only a damaged checkpoint could carry one) is ignored.
func (s *pageSet) add(k csr.PageKey) bool {
	if k.Side > 1 || k.Interval < 0 || k.Page < 0 {
		return false
	}
	if n := int(k.Interval) + 1 - len(s.rows[k.Side]); n > 0 {
		s.rows[k.Side] = append(s.rows[k.Side], make([]bitset.Set, n)...)
	}
	if !s.rows[k.Side][k.Interval].Add(int(k.Page)) {
		return false
	}
	s.n++
	return true
}

func (s *pageSet) clear() {
	for side := range s.rows {
		for iv := range s.rows[side] {
			s.rows[side][iv].Reset()
		}
	}
	s.n = 0
}

// keys returns the set's pages in (Side, Interval, Page) order.
func (s *pageSet) keys() []csr.PageKey {
	keys := make([]csr.PageKey, 0, s.n)
	for side := range s.rows {
		for iv := range s.rows[side] {
			s.rows[side][iv].Range(func(page int) bool {
				keys = append(keys, csr.PageKey{Side: uint8(side), Interval: int32(iv), Page: int32(page)})
				return true
			})
		}
	}
	return keys
}

// NewPredictor creates a predictor for n vertices. threshold <= 0 selects
// DefaultThreshold.
func NewPredictor(n uint32, pageSize int, threshold float64) *Predictor {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Predictor{
		threshold:  threshold,
		pageSize:   pageSize,
		prevActive: bitset.New(int(n)),
		currActive: bitset.New(int(n)),
	}
}

// NoteActive records that v is active in the current superstep.
func (p *Predictor) NoteActive(v uint32) { p.currActive.Set(int(v)) }

// NotePageUtils records measured page utilization from one adjacency load.
func (p *Predictor) NotePageUtils(utils []csr.PageUtil) {
	for _, u := range utils {
		if !p.currSeen.add(u.Key) {
			continue
		}
		frac := float64(u.UsedBytes) / float64(p.pageSize)
		if u.UsedBytes > 0 && frac < p.threshold {
			p.currIneff.add(u.Key)
			if p.prevIneff.has(u.Key) {
				p.correct++
			}
		}
	}
}

// PredictActive reports whether v is predicted active next superstep:
// active at least once in the past N supersteps (N = 1, i.e. the previous
// superstep) or already active now.
func (p *Predictor) PredictActive(v uint32) bool {
	return p.prevActive.Test(int(v)) || p.currActive.Test(int(v))
}

// PageIneff reports whether the page was predicted inefficient for the
// current superstep (measured inefficient in the previous one).
func (p *Predictor) PageIneff(key csr.PageKey) bool { return p.prevIneff.has(key) }

// PageIneffNow reports whether the page has been measured inefficient in
// the current superstep; the engine uses the current measurement when
// deciding what to log for the next superstep.
func (p *Predictor) PageIneffNow(key csr.PageKey) bool { return p.currIneff.has(key) }

// StepStats summarizes a finished superstep's prediction quality.
type StepStats struct {
	InefficientPages uint64 // pages measured inefficient this superstep
	PredictedIneff   uint64 // pages that had been predicted inefficient
	Correct          uint64 // predictions confirmed this superstep
	PagesTouched     uint64
}

// EndSuperstep rolls the history forward and returns this superstep's
// prediction stats.
func (p *Predictor) EndSuperstep() StepStats {
	st := StepStats{
		InefficientPages: uint64(p.currIneff.n),
		PredictedIneff:   uint64(p.prevIneff.n),
		Correct:          uint64(p.correct),
		PagesTouched:     uint64(p.currSeen.n),
	}
	p.prevActive, p.currActive = p.currActive, p.prevActive
	p.currActive.Reset()
	p.prevIneff, p.currIneff = p.currIneff, p.prevIneff
	p.currIneff.clear()
	p.currSeen.clear()
	p.correct = 0
	return st
}

// History returns the predictor's rolled-over state at a superstep
// boundary: the previous superstep's active set (as bitset words) and the
// pages it measured inefficient, sorted for deterministic serialization.
// Together with RestoreHistory it lets checkpoints carry the prediction
// signal across a crash, so a resumed run re-logs the same vertices an
// uninterrupted run would.
func (p *Predictor) History() (prevActive []uint64, prevIneff []csr.PageKey) {
	return p.prevActive.Words(), p.prevIneff.keys()
}

// RestoreHistory overwrites the predictor's previous-superstep state from
// a checkpoint. The current-superstep accumulators are reset, matching the
// state right after EndSuperstep.
func (p *Predictor) RestoreHistory(prevActive []uint64, prevIneff []csr.PageKey) {
	p.prevActive.SetWords(prevActive)
	p.currActive.Reset()
	p.prevIneff.clear()
	for _, k := range prevIneff {
		p.prevIneff.add(k)
	}
	p.currIneff.clear()
	p.currSeen.clear()
	p.correct = 0
}

// EdgeLog stores re-logged out-edge lists. Two generations alternate: the
// engine logs into the next generation while serving reads from the
// current one. For weighted graphs each vertex's weights are logged after
// its neighbor ids, so one log read serves both.
type EdgeLog struct {
	dev      *ssd.Device
	prefix   string
	pageSize int
	weighted bool

	gen     int
	files   [2]*ssd.File
	index   [2]generation
	writer  *ssd.Writer
	written int64

	// Scratch kept between calls: the Fill in progress, and LogEdges' encoding.
	pages []int
	ents  []entry
	buf   []byte

	tr *obsv.Trace // nil = tracing disabled
}

// generation indexes one generation's lists: a bitmap answers Has — asked of
// every active vertex, of a log that holds few — and the entries, ordered by
// vertex, say where each list lies.
type generation struct {
	has  bitset.Set
	ents []entry // in log order; by vertex once the generation is current
}

type entry struct {
	off int64
	v   uint32
	deg uint32
}

func (g *generation) reset() {
	g.has.Reset()
	g.ents = g.ents[:0]
}

// SetTracer attaches a span tracer; generation swaps emit spans on it.
// A nil tracer (the default) disables tracing.
func (e *EdgeLog) SetTracer(tr *obsv.Trace) { e.tr = tr }

// New creates an EdgeLog using two device files "<prefix>.0/1". Set
// weighted for graphs whose edge lists carry weights.
func New(dev *ssd.Device, prefix string, weighted bool) (*EdgeLog, error) {
	e := &EdgeLog{dev: dev, prefix: prefix, pageSize: dev.PageSize(), weighted: weighted}
	for i := 0; i < 2; i++ {
		f, err := dev.OpenOrCreate(fmt.Sprintf("%s.%d", prefix, i))
		if err != nil {
			return nil, err
		}
		// Drop any pages surviving from an earlier run: offsets in the
		// index are relative to an empty file.
		if err := f.Truncate(); err != nil {
			return nil, err
		}
		e.files[i] = f
	}
	e.writer = ssd.NewWriter(e.files[1])
	return e, nil
}

// LogEdges appends v's out-edges (and weights, for weighted logs) to the
// next generation. weights must be parallel to nbrs when the log is
// weighted and is ignored otherwise.
func (e *EdgeLog) LogEdges(v uint32, nbrs, weights []uint32) error {
	next := &e.index[1-e.gen]
	if !next.has.Add(int(v)) {
		return nil
	}
	next.ents = append(next.ents, entry{off: e.writer.Offset(), v: v, deg: uint32(len(nbrs))})
	// One encoding and one write per list: ids, then weights.
	e.buf = e.buf[:0]
	for _, w := range nbrs {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, w)
	}
	if e.weighted {
		for _, w := range weights {
			e.buf = binary.LittleEndian.AppendUint32(e.buf, w)
		}
	}
	if _, err := e.writer.Write(e.buf); err != nil {
		return err
	}
	e.written += int64(len(e.buf))
	return nil
}

// LoggedBytes returns the bytes logged into the next generation so far.
func (e *EdgeLog) LoggedBytes() int64 { return e.written }

// Pages returns the device pages the current generation occupies: what
// logging it wrote, by the time EndSuperstep has made it current.
func (e *EdgeLog) Pages() int { return e.files[e.gen].NumPages() }

// Has reports whether the current generation holds v's edges.
func (e *EdgeLog) Has(v uint32) bool { return e.index[e.gen].has.Has(int(v)) }

// Load fetches the out-edge lists (and weights, for weighted logs) of the
// given vertices from the current generation, reading only covering pages
// in one batch. All vertices must satisfy Has. Returns the number of pages
// read. weights is nil for unweighted logs. It is the visitor form of Fill:
// no list is visited unless all were loaded.
func (e *EdgeLog) Load(verts []uint32, visit func(v uint32, nbrs, weights []uint32)) (int, error) {
	var a csr.Arena
	a.Reset(len(verts), e.weighted)
	pages, err := e.Fill(verts, nil, &a)
	if err != nil {
		return 0, err
	}
	for i, v := range verts {
		visit(v, a.Edges(i), a.Weights(i))
	}
	return pages, nil
}

// Fill loads the lists of verts from the current generation into a,
// verts[i]'s at position pos[i] (position i when pos is nil), with one batched
// read of the covering pages into a buffer the log keeps. All vertices must
// satisfy Has. Returns the number of pages read.
func (e *EdgeLog) Fill(verts []uint32, pos []int32, a *csr.Arena) (int, error) {
	if len(verts) == 0 {
		return 0, nil
	}
	stride := int64(4)
	if e.weighted {
		stride = 8 // ids then weights, both deg×4 bytes
	}
	logged := e.index[e.gen].ents
	ps := int64(e.pageSize)
	// Vertices are logged in the order batches process them, so offsets
	// ascend with vertex id and the page list comes out sorted — except after
	// a caller that logged out of order, which costs one sort. A batch asks
	// in that order too: the cursor k finds a run of consecutive entries
	// without a search.
	e.pages, e.ents = e.pages[:0], e.ents[:0]
	sorted, edges, k := true, 0, 0
	for _, v := range verts {
		if k >= len(logged) || logged[k].v != v {
			var ok bool
			if k, ok = slices.BinarySearchFunc(logged, v, func(ent entry, v uint32) int { return cmp.Compare(ent.v, v) }); !ok {
				return 0, fmt.Errorf("edgelog: vertex %d not logged", v)
			}
		}
		ent := logged[k]
		k++
		e.ents = append(e.ents, ent)
		edges += int(ent.deg)
		for p := int(ent.off / ps); ent.deg > 0 && int64(p)*ps < ent.off+int64(ent.deg)*stride; p++ {
			if n := len(e.pages); n == 0 || e.pages[n-1] != p {
				sorted = sorted && (n == 0 || e.pages[n-1] < p)
				e.pages = append(e.pages, p)
			}
		}
	}
	if !sorted {
		slices.Sort(e.pages)
		e.pages = slices.Compact(e.pages)
	}
	if need := len(e.pages) * e.pageSize; cap(e.buf) < need {
		e.buf = make([]byte, need)
	} else {
		e.buf = e.buf[:need]
	}
	if err := e.files[e.gen].ReadPages(e.pages, e.buf); err != nil {
		return 0, err
	}
	a.Reserve(edges)
	for i, ent := range e.ents {
		p := i
		if pos != nil {
			p = int(pos[i])
		}
		nbrs, weights := a.Alloc(p, int(ent.deg))
		e.decode(nbrs, ent.off)
		if e.weighted {
			e.decode(weights, ent.off+int64(ent.deg)*4)
		} else {
			clear(weights)
		}
	}
	return len(e.pages), nil
}

// decode fills dst with the words logged from byte offset off on, which lie
// on consecutive pages of the batch just read.
func (e *EdgeLog) decode(dst []uint32, off int64) {
	ps := e.pageSize
	k, _ := slices.BinarySearch(e.pages, int(off/int64(ps)))
	in := int(off % int64(ps))
	for len(dst) > 0 {
		n := min(len(dst), (ps-in)/4)
		src := e.buf[k*ps+in:]
		for j := range dst[:n] {
			dst[j] = binary.LittleEndian.Uint32(src[4*j:])
		}
		dst, k, in = dst[n:], k+1, 0
	}
}

// InvalidateCurrent discards the current generation: the index empties
// and the backing file truncates (which also drops any cached pages), so
// every vertex falls back to canonical CSR loading. This is the heal path
// for a corrupt edge-log page — the log is a redundant adjacency cache,
// so dropping a generation costs extra CSR reads but never correctness.
// Logging into the *next* generation is unaffected.
func (e *EdgeLog) InvalidateCurrent() error {
	e.index[e.gen].reset()
	return e.files[e.gen].Truncate()
}

// Dump visits every vertex in the current generation in ascending vertex
// order with its logged neighbors (and weights, for weighted logs),
// reading the covering pages in one batch. Checkpointing uses it to
// serialize the generation that will serve the next superstep. Returns
// the number of pages read.
func (e *EdgeLog) Dump(visit func(v uint32, nbrs, weights []uint32)) (int, error) {
	logged := e.index[e.gen].ents
	if len(logged) == 0 {
		return 0, nil
	}
	verts := make([]uint32, len(logged))
	for i, ent := range logged {
		verts[i] = ent.v
	}
	return e.Load(verts, visit)
}

// EndSuperstep flushes the next generation to the device and swaps
// generations; the old current generation is truncated for reuse.
func (e *EdgeLog) EndSuperstep() error {
	// Tid 3 is the edge-log unit's trace timeline (engine stages own tid 1,
	// the multi-log unit tid 2).
	sp := e.tr.BeginTid("elog", "end-superstep", 3)
	sp.Arg("logged_bytes", e.written)
	sp.Arg("logged_verts", int64(len(e.index[1-e.gen].ents)))
	defer sp.End()
	if err := e.writer.Close(); err != nil {
		return err
	}
	old := e.gen
	e.gen = 1 - e.gen
	// Logged ascending, as the engine does, this is one pass over the entries.
	slices.SortFunc(e.index[e.gen].ents, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
	e.index[old].reset()
	if err := e.files[old].Truncate(); err != nil {
		return err
	}
	e.writer = ssd.NewWriter(e.files[old])
	e.written = 0
	return nil
}
