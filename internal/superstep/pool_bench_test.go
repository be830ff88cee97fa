package superstep

import (
	"testing"
	"time"
)

// BenchmarkForEachFork prices the fork/join ForEach pays when a wave forks,
// the way an engine meets it: each wave follows serial work on the run
// goroutine (a drain, a sort) long enough for the other Ps to go idle.
// "inline" and "forked" time only the waves (ns/wave; their difference is
// the fork cost forkWork amortises), two trivial chunks' worth, with work
// under and at 2×forkWork. "unit" times trivial per-item work on the caller
// (ns/unit), the floor under any real vertex work.
func BenchmarkForEachFork(b *testing.B) {
	const serial = 80 * time.Microsecond
	for _, bc := range []struct {
		name string
		work int
	}{{"inline", forkWork - 1}, {"forked", 2 * forkWork}} {
		b.Run(bc.name, func(b *testing.B) {
			var waves time.Duration
			for i := 0; i < b.N; i++ {
				for t0 := time.Now(); time.Since(t0) < serial; {
				}
				t0 := time.Now()
				if err := ForEach(2, 2, bc.work, func(int, int, int) error { return nil }); err != nil {
					b.Fatal(err)
				}
				waves += time.Since(t0)
			}
			b.ReportMetric(float64(waves.Nanoseconds())/float64(b.N), "ns/wave")
		})
	}
	b.Run("unit", func(b *testing.B) {
		const n = 1 << 16
		sums := make([]uint64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ForEach(1, n, n, func(_, lo, hi int) error {
				for j := lo; j < hi; j++ {
					sums[j] += uint64(j) * uint64(i)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/unit")
	})
}
