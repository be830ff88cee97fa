package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"multilogvc/internal/ssd"
)

// A query run on a slot another query just used gives what it gives on a
// fresh slot: the same values and the same scoped device counters. Each side
// runs the same sequence of queries on its own copy of the serving graph, so
// the shared caches see the same traffic; only the slots differ. A query that
// dies of an armed fault leaves its slot empty.
func TestSlotReuseNeverLeaks(t *testing.T) {
	a, b, warm := []uint32{5, 900, 1500, 77}, []uint32{17}, []uint32{300, 301}
	gWarm, gFresh := servingGraph(t), servingGraph(t)
	slot := new(Slot)
	// onBoth runs sources as query tag on both graphs: on gWarm through
	// slot, on gFresh through a slot of its own.
	onBoth := func(tag string, sources []uint32) (warmErr, freshErr error) {
		t.Helper()
		r1, st1, err1 := serveExec(gWarm, tag, sources, slot)
		r2, st2, err2 := serveExec(gFresh, tag, sources, new(Slot))
		if err1 != nil || err2 != nil {
			return err1, err2
		}
		if !reflect.DeepEqual(r1.Values, r2.Values) {
			t.Fatalf("%s: values differ after the slot's earlier runs", tag)
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("%s: scoped stats differ after the slot's earlier runs:\nslot  %+v\nfresh %+v", tag, st1, st2)
		}
		return nil, nil
	}
	for _, q := range []struct {
		tag     string
		sources []uint32
	}{{"w", warm}, {"a", a}, {"b", b}, {"a2", a}} {
		if err1, err2 := onBoth(q.tag, q.sources); err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
	}
	if slot.Bytes() == 0 {
		t.Fatal("the slot kept nothing from its successful runs")
	}

	// A fails four attempts in a row at one page operation, past the retry
	// budget, some way into its run.
	plan := ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{60, 61, 62, 63}}}
	gWarm.Device().SetFaults(plan)
	gFresh.Device().SetFaults(plan)
	err1, err2 := onBoth("f", a)
	gWarm.Device().SetFaults(ssd.FaultPlan{})
	gFresh.Device().SetFaults(ssd.FaultPlan{})
	if err1 == nil || err2 == nil {
		t.Fatalf("the armed fault did not fail the run: %v, %v", err1, err2)
	}
	if kept := slot.Bytes(); kept != 0 {
		t.Fatalf("a failed run left %d bytes in its slot", kept)
	}
	if err1, err2 := onBoth("b2", b); err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
}

// The serving shape allocates its working set once per slot: a cold
// execution allocates over a MiB, the third execution on one slot less than
// a quarter of one.
func TestSlotKeepsServingWorkingSet(t *testing.T) {
	const coldFloor, warmCeiling = 1 << 20, 256 << 10
	g := servingGraph(t)
	sources := []uint32{42}
	allocated := func(slot *Slot) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveRun(t, g, "q", sources, slot)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	serveRun(t, g, "q", sources, nil) // the cache now holds what the query reads
	if cold := allocated(nil); cold <= coldFloor {
		t.Fatalf("a cold execution allocated %d bytes, want over %d", cold, coldFloor)
	}
	slot := new(Slot)
	allocated(slot)
	allocated(slot)
	if third := allocated(slot); third >= warmCeiling {
		t.Fatalf("the third execution on one slot allocated %d bytes, want under %d (the slot keeps %d)", third, warmCeiling, slot.Bytes())
	}
}

// Runs that share one slot at once — a host that lends it twice — each get
// the right answer: one holds the working set, the others run without it.
func TestSlotSharedByConcurrentRuns(t *testing.T) {
	g := servingGraph(t)
	sources := []uint32{9, 640}
	want, _ := serveRun(t, g, "ref", sources, nil)
	slot := new(Slot)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := serveExec(g, fmt.Sprintf("c%d", i), sources, slot)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res.Values, want.Values) {
				t.Errorf("run %d on a shared slot: values differ", i)
			}
		}()
	}
	wg.Wait()
	if slot.Bytes() == 0 {
		t.Fatal("no run gave the working set back to the slot")
	}
}
