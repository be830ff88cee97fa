package multilogvc_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	multilogvc "multilogvc"
	"multilogvc/internal/apps"
	"multilogvc/internal/obsv"
)

// Graph.Run keeps the engine's working set from one run to the next: a
// second PageRank allocates under a quarter of what the first, cold one did,
// and its values are bit-identical. A lane-batched run with another worker
// count than the run that left the set gives what it gives cold.
func TestRunReusesWorkingSet(t *testing.T) {
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	edges, err := multilogvc.RMAT(12, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.BuildGraph("g", edges, multilogvc.GraphOptions{MemoryBudget: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// A run that ends in error drops the working set it took, so runs on a
	// cancelled context empty the process's idle sets.
	idle := obsv.Live().SlotIdleBytes
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	empty := func() {
		t.Helper()
		for i := 0; idle.Value() != 0; i++ {
			if i == 64 {
				t.Fatalf("64 cancelled runs left %d idle bytes", idle.Value())
			}
			if _, err := g.Run(multilogvc.NewPageRank(), multilogvc.RunOptions{Context: cancelled}); err == nil {
				t.Fatal("a run on a cancelled context succeeded")
			}
		}
	}
	run := func(prog multilogvc.Program, workers int) (values []uint32, allocated uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := g.Run(prog, multilogvc.RunOptions{MaxSupersteps: 10, Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res.Values, after.TotalAlloc - before.TotalAlloc
	}

	empty()
	first, cold := run(multilogvc.NewPageRank(), 2)
	second, warm := run(multilogvc.NewPageRank(), 2)
	t.Logf("cold %d bytes, warm %d", cold, warm)
	if warm >= cold/4 {
		t.Fatalf("the second run allocated %d bytes, the first %d: want under a quarter", warm, cold)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("the second run's values differ from the first's")
	}

	lanes := func() multilogvc.Program {
		p, err := apps.NewMultiBFS([]uint32{0, 5, 77, 1000})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	empty()
	want, _ := run(lanes(), 3)
	run(multilogvc.NewPageRank(), 1)
	if got, _ := run(lanes(), 3); !reflect.DeepEqual(got, want) {
		t.Fatal("a four-lane run on three workers differs after a one-lane run on one worker left the set")
	}
}
