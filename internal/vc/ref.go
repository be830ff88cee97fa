package vc

import (
	"sort"

	"multilogvc/internal/graphio"
)

// RefEngine is a simple in-memory BSP engine. It is the semantic ground
// truth: every out-of-core engine must produce identical vertex values on
// identical programs and graphs (the suite's cross-engine tests assert
// this). It performs no IO accounting.
type RefEngine struct {
	n    uint32
	out  [][]uint32
	outW [][]uint32 // nil for unweighted graphs
	in   [][]uint32 // sorted in-neighbor lists, built lazily for AuxUsers
}

// NewRef builds a reference engine over a directed edge list.
func NewRef(edges []graphio.Edge, n uint32) *RefEngine {
	if m := graphio.NumVertices(edges); m > n {
		n = m
	}
	e := &RefEngine{n: n, out: make([][]uint32, n)}
	for _, ed := range edges {
		e.out[ed.Src] = append(e.out[ed.Src], ed.Dst)
	}
	for _, nbrs := range e.out {
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	}
	return e
}

// NewRefWeighted builds a reference engine over weighted edges.
func NewRefWeighted(wedges []graphio.WeightedEdge, n uint32) *RefEngine {
	if m := graphio.NumVertices(graphio.Strip(wedges)); m > n {
		n = m
	}
	sorted := make([]graphio.WeightedEdge, len(wedges))
	copy(sorted, wedges)
	graphio.SortWeighted(sorted)
	e := &RefEngine{n: n, out: make([][]uint32, n), outW: make([][]uint32, n)}
	for _, ed := range sorted {
		e.out[ed.Src] = append(e.out[ed.Src], ed.Dst)
		e.outW[ed.Src] = append(e.outW[ed.Src], ed.Weight)
	}
	return e
}

func (e *RefEngine) buildIn() {
	if e.in != nil {
		return
	}
	e.in = make([][]uint32, e.n)
	for src, nbrs := range e.out {
		for _, dst := range nbrs {
			e.in[dst] = append(e.in[dst], uint32(src))
		}
	}
	for _, s := range e.in {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
}

// RefResult is the outcome of a reference run.
type RefResult struct {
	Values        []uint32
	Supersteps    int
	ActivePerStep []uint64 // processed vertices per superstep
	MsgsPerStep   []uint64 // messages sent per superstep
	Converged     bool     // halted before MaxSupersteps
}

type refCtx struct {
	eng       *RefEngine
	superstep int
	vertex    uint32
	values    []uint32
	halted    func(v uint32)
	send      func(dst, data uint32)
	aux       [][]uint32 // nil unless AuxUser
	muts      *[]Mutation
}

func (c *refCtx) Superstep() int      { return c.superstep }
func (c *refCtx) NumVertices() uint32 { return c.eng.n }
func (c *refCtx) Vertex() uint32      { return c.vertex }
func (c *refCtx) Value() uint32       { return c.values[c.vertex] }
func (c *refCtx) SetValue(v uint32)   { c.values[c.vertex] = v }
func (c *refCtx) OutEdges() []uint32  { return c.eng.out[c.vertex] }
func (c *refCtx) OutWeights() []uint32 {
	if c.eng.outW == nil {
		return nil
	}
	return c.eng.outW[c.vertex]
}
func (c *refCtx) VoteToHalt()           { c.halted(c.vertex) }
func (c *refCtx) Send(dst, data uint32) { c.send(dst, data) }
func (c *refCtx) InEdgeSources() []uint32 {
	if c.eng.in == nil {
		return nil
	}
	return c.eng.in[c.vertex]
}
func (c *refCtx) Aux() []uint32 {
	if c.aux == nil {
		return nil
	}
	return c.aux[c.vertex]
}

// AddEdge implements Mutator.
func (c *refCtx) AddEdge(src, dst, weight uint32) {
	*c.muts = append(*c.muts, Mutation{Add: true, Src: src, Dst: dst, Weight: weight})
}

// RemoveEdge implements Mutator.
func (c *refCtx) RemoveEdge(src, dst uint32) {
	*c.muts = append(*c.muts, Mutation{Src: src, Dst: dst})
}

// applyMutations rewrites the adjacency at a superstep boundary.
func (e *RefEngine) applyMutations(muts []Mutation) {
	for _, m := range muts {
		if m.Add {
			e.out[m.Src] = append(e.out[m.Src], m.Dst)
			if e.outW != nil {
				e.outW[m.Src] = append(e.outW[m.Src], m.Weight)
			}
			continue
		}
		nbrs := e.out[m.Src]
		for i, nb := range nbrs {
			if nb == m.Dst {
				e.out[m.Src] = append(nbrs[:i], nbrs[i+1:]...)
				if e.outW != nil {
					w := e.outW[m.Src]
					e.outW[m.Src] = append(w[:i], w[i+1:]...)
				}
				break
			}
		}
	}
	// Keep adjacency sorted (the documented OutEdges order). Weighted
	// lists stay aligned via pair sort.
	for v := range e.out {
		if e.outW == nil {
			sort.Slice(e.out[v], func(i, j int) bool { return e.out[v][i] < e.out[v][j] })
			continue
		}
		type pair struct{ d, w uint32 }
		pairs := make([]pair, len(e.out[v]))
		for i := range pairs {
			pairs[i] = pair{e.out[v][i], e.outW[v][i]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].d < pairs[j].d })
		for i, p := range pairs {
			e.out[v][i], e.outW[v][i] = p.d, p.w
		}
	}
	e.in = nil // invalidate lazily-built in-adjacency
}

// Run executes prog for at most maxSupersteps supersteps (or until no
// vertex is active and no messages are in flight).
func (e *RefEngine) Run(prog Program, maxSupersteps int) *RefResult {
	values := make([]uint32, e.n)
	for v := uint32(0); v < e.n; v++ {
		values[v] = prog.InitValue(v, e.n)
	}

	var aux [][]uint32
	if au, ok := prog.(AuxUser); ok {
		e.buildIn()
		init := au.AuxInit(e.n)
		aux = make([][]uint32, e.n)
		for v := uint32(0); v < e.n; v++ {
			s := make([]uint32, len(e.in[v]))
			for i := range s {
				s[i] = init
			}
			aux[v] = s
		}
	}

	active := make(map[uint32]bool)
	is := prog.InitActive(e.n)
	if is.All {
		for v := uint32(0); v < e.n; v++ {
			active[v] = true
		}
	} else {
		for _, v := range is.Verts {
			active[v] = true
		}
	}

	inbox := make(map[uint32][]Msg)
	res := &RefResult{}
	for step := 0; step < maxSupersteps; step++ {
		if len(active) == 0 && len(inbox) == 0 {
			res.Converged = true
			break
		}
		// Vertices with messages become active.
		for v := range inbox {
			active[v] = true
		}
		// Deterministic processing order.
		verts := make([]uint32, 0, len(active))
		for v := range active {
			verts = append(verts, v)
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })

		nextInbox := make(map[uint32][]Msg)
		halted := make(map[uint32]bool)
		var sent uint64
		var muts []Mutation
		ctx := &refCtx{
			eng: e, superstep: step, values: values, aux: aux,
			halted: func(v uint32) { halted[v] = true },
			muts:   &muts,
		}
		for _, v := range verts {
			ctx.vertex = v
			ctx.send = func(dst, data uint32) {
				nextInbox[dst] = append(nextInbox[dst], Msg{Dst: dst, Src: v, Data: data})
				sent++
			}
			prog.Process(ctx, inbox[v])
		}
		res.ActivePerStep = append(res.ActivePerStep, uint64(len(verts)))
		res.MsgsPerStep = append(res.MsgsPerStep, sent)
		res.Supersteps++

		for v := range halted {
			delete(active, v)
		}
		if len(muts) > 0 {
			e.applyMutations(muts)
		}
		inbox = nextInbox
	}
	if len(active) == 0 && len(inbox) == 0 {
		res.Converged = true
	}
	res.Values = values
	return res
}
