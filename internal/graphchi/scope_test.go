package graphchi

import (
	"reflect"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/ssd"
)

// TestRunChargesOnlyItsScope: the engine opens everything it touches
// through its own scoped device handle, so over a run that owns the device
// its scope and the device count the same IO and faults; only the device's
// file bookkeeping (creates, removes, truncates) is not attributed.
func TestRunChargesOnlyItsScope(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 5)
	e := newEngine(t, edges, n, Config{MaxSupersteps: 5})
	e.g.Device().SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{7, 70}}})
	before := e.g.Device().Stats()
	if _, err := e.Run(&apps.PageRank{}); err != nil {
		t.Fatal(err)
	}
	want := e.g.Device().Stats().Sub(before)
	want.FilesCreated, want.FilesRemoved, want.FileTruncates = 0, 0, 0
	got := e.sc.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scope saw %d/%d pages in %v, device %d/%d in %v",
			got.PagesRead, got.PagesWritten, got.StorageTime(), want.PagesRead, want.PagesWritten, want.StorageTime())
	}
	if got.Retries != 2 {
		t.Fatalf("scope counted %d retries, want 2", got.Retries)
	}
}
