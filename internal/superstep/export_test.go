package superstep

// ForkedWaves returns how many ForEach passes have started goroutines in
// this process.
func ForkedWaves() uint64 { return forks.Load() }
