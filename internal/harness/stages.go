package harness

import (
	"fmt"

	"multilogvc/internal/apps"
	"multilogvc/internal/engine"
	"multilogvc/internal/metrics"
)

// StageBreakdown attributes PageRank's device traffic to the pipeline
// stages the engine tagged it with (vertex processing, sort+group, relog,
// checkpoint, spill) — the serial-time decomposition that tells
// you which stage an optimization must target. A final "(compute)" row
// reports the host-side time not spent on the virtual device, so the
// stage shares sum to a complete picture of where a superstep goes.
func StageBreakdown(size Size) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Per-stage IO breakdown (pagerank, MultiLogVC)",
		Headers: []string{"dataset", "stage", "pages r", "pages w", "device time", "share"},
	}
	dss, err := Datasets(size)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		env, err := Prepare(ds, EnvOptions{})
		if err != nil {
			return nil, err
		}
		rep, _, err := env.Run(&apps.PageRank{}, engine.Options{MaxSupersteps: MaxSupersteps})
		if err != nil {
			return nil, err
		}
		total := float64(rep.StorageTime)
		for _, st := range rep.Stages {
			share := "-"
			if total > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(st.Time)/total)
			}
			t.AddRow(ds.Name, st.Stage,
				fmt.Sprint(st.PagesRead), fmt.Sprint(st.PagesWritten),
				metrics.D(st.Time), share)
		}
		// Host-side compute time (wall), reported beside the virtual device
		// time the same way Report.TotalTime composes them.
		t.AddRow(ds.Name, "(compute)", "-", "-", metrics.D(rep.ComputeTime), "-")
	}
	return t, nil
}
