// Package vc defines the vertex-centric programming contract shared by all
// engines in this repository (MultiLogVC, the GraphChi baseline, the
// GraFBoost baseline, and the in-memory reference engine).
//
// A Program is written once and runs unchanged on every engine, which is
// what makes the paper's cross-engine comparisons meaningful. The model is
// bulk-synchronous (Pregel-style): in each superstep every active vertex
// processes the messages sent to it in the previous superstep, may update
// its value, send messages along its out-edges, and vote to halt. A halted
// vertex is reactivated by an incoming message.
//
// A message is one fixed-size <dst, src, data> update record (uint32 each),
// matching §V-A of the paper: the same record is logged as 12 bytes on
// storage, sorted by destination and handed to Process. Programs whose updates are associative and commutative may
// additionally implement Combiner to unlock the engines' merge fast paths
// (GraFBoost requires it).
package vc

import "sort"

// Msg is one update record: the type a Send becomes, the multi-log logs,
// the sort orders by Dst, Process receives and a checkpoint saves.
type Msg struct {
	Dst  uint32 // receiving vertex
	Src  uint32 // sending vertex
	Data uint32 // payload (bit-cast float32 for numeric algorithms)
}

// Context is the engine-provided view a vertex has while being processed.
// It is only valid during the Process call that received it.
type Context interface {
	// Superstep returns the current superstep number (0-based).
	Superstep() int
	// NumVertices returns the graph's vertex count.
	NumVertices() uint32
	// Vertex returns the id of the vertex being processed.
	Vertex() uint32
	// Value returns the current vertex value.
	Value() uint32
	// SetValue updates the vertex value.
	SetValue(v uint32)
	// OutEdges returns the destination ids of the vertex's out-edges.
	// The slice aliases engine memory and is valid only during Process.
	OutEdges() []uint32
	// OutWeights returns the vertex's out-edge weights, parallel to
	// OutEdges, or nil when the graph is unweighted. Same lifetime rules
	// as OutEdges.
	OutWeights() []uint32
	// Send sends data to dst, delivered in the next superstep.
	Send(dst uint32, data uint32)
	// VoteToHalt deactivates the vertex; an incoming message reactivates
	// it. All of the paper's applications deactivate after processing.
	VoteToHalt()
	// InEdgeSources returns the vertex's in-edge source ids, sorted
	// ascending. Only available when the Program implements AuxUser;
	// returns nil otherwise.
	InEdgeSources() []uint32
	// Aux returns mutable per-in-edge auxiliary state parallel to
	// InEdgeSources (e.g. the last known label of each in-neighbor).
	// Only available when the Program implements AuxUser.
	Aux() []uint32
}

// InitSet describes the initially active vertex set of a program.
type InitSet struct {
	All   bool     // every vertex starts active
	Verts []uint32 // otherwise, exactly these (sorted ascending)
}

// Program is a vertex-centric graph algorithm.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// InitValue returns vertex v's value before superstep 0.
	InitValue(v uint32, n uint32) uint32
	// InitActive returns the initially active vertices. They run Process
	// in superstep 0 with an empty message list.
	InitActive(n uint32) InitSet
	// Process handles one active vertex. msgs are the updates sent to
	// this vertex in the previous superstep, in unspecified order; each
	// has Dst == ctx.Vertex(). The slice aliases engine memory and is
	// valid only during the call.
	Process(ctx Context, msgs []Msg)
}

// LaneProgram is implemented by multi-source programs that run K
// independent point queries ("lanes") in one superstep execution. The
// engine then allocates a lane-strided value array (Lanes slots per
// vertex) and provides a LaneContext; the active set is the union of the
// per-lane frontiers, so K queries cost one pass over the logs instead of
// K. Lanes are fully independent — a lane's values and messages never
// influence another lane — which is what makes the batched result
// bit-identical to K sequential single-source runs. LanePrograms must not
// implement Combiner: messages of different lanes must never merge.
type LaneProgram interface {
	Program
	// Lanes returns the number of member queries (value slots per vertex).
	Lanes() int
	// InitValueLane returns vertex v's initial value in the given lane.
	// Program.InitValue is still consulted by single-lane engines and
	// should return InitValueLane(v, 0, n).
	InitValueLane(v uint32, lane int, n uint32) uint32
}

// LaneContext is the Context extension engines provide when running a
// LaneProgram. Programs probe for it with a type assertion; engines
// without lane support simply never run LanePrograms with Lanes() > 1.
type LaneContext interface {
	Context
	// ValueLane returns the processed vertex's value in the given lane.
	ValueLane(lane int) uint32
	// SetValueLane updates the processed vertex's value in the given lane.
	SetValueLane(lane int, v uint32)
}

// Combiner is implemented by programs whose updates can be merged into a
// single value per destination without affecting correctness (BFS's min,
// PageRank's sum). Engines may apply Combine to any subset of a vertex's
// incoming messages; the paper's GraFBoost baseline only supports programs
// that implement it.
type Combiner interface {
	Combine(a, b uint32) uint32
}

// AuxUser is implemented by programs that keep per-in-edge state (CDLP
// keeps each in-neighbor's last known label). Engines then provide
// Context.InEdgeSources and Context.Aux, persisted across supersteps.
type AuxUser interface {
	// AuxInit is the initial value of every aux entry. It receives the
	// graph size so programs can encode "unknown" sentinels.
	AuxInit(n uint32) uint32
}

// Mutation is one buffered structural update emitted during vertex
// processing.
type Mutation struct {
	Add              bool // true = add edge, false = remove
	Src, Dst, Weight uint32
}

// Mutator is implemented by the Contexts of engines that support graph
// structural updates from inside Process (§V-E of the paper). Mutations
// are buffered and applied at the end of the superstep — they become
// visible at the start of the next superstep, the restriction the paper
// (and most vertex-centric frameworks) places on structure changes.
// Programs probe for support with a type assertion:
//
//	if m, ok := ctx.(vc.Mutator); ok { m.AddEdge(u, v, 1) }
//
// The MultiLogVC engine and the reference engine implement it; mutation
// is not supported together with AuxUser programs.
type Mutator interface {
	AddEdge(src, dst, weight uint32)
	RemoveEdge(src, dst uint32)
}

// FindSource returns the index of src in the sorted sources slice, or -1.
// Programs use it to address Aux entries by sending vertex.
func FindSource(sources []uint32, src uint32) int {
	i := sort.Search(len(sources), func(i int) bool { return sources[i] >= src })
	if i < len(sources) && sources[i] == src {
		return i
	}
	return -1
}

// Hash64 is a splittable deterministic hash used for all randomized
// decisions (MIS priorities, random-walk steps), keyed by an arbitrary
// number of values. It is a 64-bit mix of the SplitMix64 finalizer.
func Hash64(keys ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, k := range keys {
		h ^= k + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = mix64(h)
	}
	return h
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
