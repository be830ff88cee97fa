package harness

import (
	"multilogvc/internal/apps"
	"multilogvc/internal/vc"
)

// The daemon's query shapes, replayed deterministically: the benchmark
// snapshot gates the batch-16 lane-batched MultiBFS execution uncached,
// so its pages per query are a pure function of the message flow, and
// the serving soak queries the same sources over HTTP.

// servingQueries is the query count of the snapshot's batched shape, and
// servingApp its program's name.
const (
	servingQueries = 16
	servingApp     = "multibfs"
)

// ServingSources spreads k deterministic query sources across [0, n):
// the daemon's steady-state mix of near and far sources, reproducible
// across processes (no RNG).
func ServingSources(n uint32, k int) []uint32 {
	out := make([]uint32, k)
	for i := range out {
		// Golden-ratio stride scatters sources across intervals without
		// clustering at the power-law head.
		out[i] = uint32((uint64(i)*11400714819323198485 + 7) % uint64(n))
	}
	return out
}

// servingProg builds the lane-batched program for a query group.
func servingProg(group []uint32) vc.Program {
	p, err := apps.NewMultiBFS(group)
	if err != nil {
		// the group is servingQueries sources, well inside MaxLanes; unreachable.
		panic(err)
	}
	return p
}
