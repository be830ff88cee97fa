package core

import (
	"reflect"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// TestRunChargesOnlyItsScope: every page a run moves goes through a handle
// scoped to Config.Scope — CSR, values, aux, both message logs, spill runs,
// the edge log, checkpoints, the merge its own mutations trigger — so over
// a run that owns the device, the scope and the device count the same IO,
// faults and reclaim sweeps, stage by stage. Only the device's file
// bookkeeping (creates, removes, truncates) is not attributed.
func TestRunChargesOnlyItsScope(t *testing.T) {
	edges, n := rmatEdges(t, 12, 12, 7)
	cases := []struct {
		name   string
		prog   vc.Program
		cfg    Config
		cached bool
		faults ssd.FaultPlan
		check  func(t *testing.T, st ssd.Stats)
	}{
		{name: "pagerank", prog: &apps.PageRank{}},
		{
			name: "cached-checkpoint-spill", prog: &apps.PageRank{}, cached: true,
			cfg: Config{CheckpointEvery: 2, SortBudget: 1 << 10},
			check: func(t *testing.T, st ssd.Stats) {
				if st.Stages[obsv.StageCheckpoint].PagesWritten == 0 || st.Stages[obsv.StageSpill].PagesWritten == 0 ||
					st.Stages[obsv.StageVertex].CacheHits == 0 {
					t.Fatalf("scenario not exercised: checkpoint %+v, spill %+v, vertex %+v",
						st.Stages[obsv.StageCheckpoint], st.Stages[obsv.StageSpill], st.Stages[obsv.StageVertex])
				}
			},
		},
		{name: "aux", prog: &apps.CDLP{}},
		{
			name: "mutation-merge", prog: mutationProg{},
			check: func(t *testing.T, st ssd.Stats) {
				if st.Stages[obsv.StageIngest].PagesWritten == 0 {
					t.Fatal("no merge charged to the run's ingest stage")
				}
			},
		},
		{
			name: "faults", prog: &apps.BFS{Source: 0},
			faults: ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{10, 50, 51}}, NoSpace: ssd.Trigger{At: []int64{5}}},
			check: func(t *testing.T, st ssd.Stats) {
				if st.TransientFaults != 3 || st.Retries != 3 || st.NoSpaceFaults != 1 || st.Reclaims != 1 {
					t.Fatalf("faults %d, retries %d, no-space %d, reclaims %d: want 3/3/1/1",
						st.TransientFaults, st.Retries, st.NoSpaceFaults, st.Reclaims)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGraph(t, edges, n, 2048)
			dev := g.Device()
			if tc.cached {
				dev.AttachCache(pagecache.New(64, dev.PageSize()))
			}
			dev.SetFaults(tc.faults)
			sc := ssd.NewScope()
			tc.cfg.Scope, tc.cfg.MaxSupersteps = sc, 6
			before := dev.Stats()
			if _, err := New(g, tc.cfg).Run(tc.prog); err != nil {
				t.Fatal(err)
			}
			want := dev.Stats().Sub(before)
			want.FilesCreated, want.FilesRemoved, want.FileTruncates = 0, 0, 0
			got := sc.Stats()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scope saw %d/%d pages in %v, device %d/%d in %v",
					got.PagesRead, got.PagesWritten, got.StorageTime(), want.PagesRead, want.PagesWritten, want.StorageTime())
			}
			if tc.check != nil {
				tc.check(t, got)
			}
		})
	}
}
