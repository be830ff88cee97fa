package harness

import (
	"fmt"

	"multilogvc/internal/core"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
)

// Isolation-cost experiment: what a batch fault isolation event costs.
// When a lane-batched serving execution dies of a retryable device fault,
// mlvcd re-runs every surviving member as an individual execution instead
// of failing all K companions (internal/serve batch fault isolation).
// The worst case therefore pays the failed batch's IO up to the fault
// PLUS K solo runs. This experiment measures that against the two clean
// baselines — one batch-K execution and K sequential solos — so the
// price of "no companion sees its neighbor's fault" is a number, not a
// hope. Uncached, like the serving experiment, so pages/query is a pure
// function of the message flow.

// IsolationCost answers the same 16 BFS queries three ways: one clean
// lane-batched execution, 16 sequential solo executions, and a full
// isolation event (the batch dies of corrupt scratch on its first
// read-back, then every member re-runs solo).
func IsolationCost(size Size) (*metrics.Table, error) {
	cf, err := CFMini(size)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("isolation: %d BFS queries on %s, uncached — clean batch vs solos vs isolation event",
			servingQueries, cf.Name),
		Headers: []string{"path", "executions", "pages read/query", "pages written/query", "vs clean batch"},
	}
	sources := ServingSources(cf.N, servingQueries)

	type row struct {
		name       string
		executions int
		pagesRead  uint64
		pagesWrite uint64
	}
	var rows []row

	// Clean batch-16: the serving fast path.
	env, err := Prepare(cf, EnvOptions{CacheMB: -1})
	if err != nil {
		return nil, err
	}
	rep, _, err := RunMLVC(env, servingProg(sources), RunOpts{MaxSupersteps: 50})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"batch16 clean", 1, rep.PagesRead, rep.PagesWritten})

	// 16 sequential solos: serving with batching off.
	env, err = Prepare(cf, EnvOptions{CacheMB: -1})
	if err != nil {
		return nil, err
	}
	var soloRead, soloWrite uint64
	for _, src := range sources {
		rep, _, err := RunMLVC(env, servingProg([]uint32{src}), RunOpts{MaxSupersteps: 50})
		if err != nil {
			return nil, err
		}
		soloRead += rep.PagesRead
		soloWrite += rep.PagesWritten
	}
	rows = append(rows, row{"16 solos", servingQueries, soloRead, soloWrite})

	// Isolation event: the batch run's scratch namespace (".iso.")
	// corrupts on first read-back, the run dies classified, and all 16
	// members re-run solo — the exact sequence internal/serve executes.
	env, err = Prepare(cf, EnvOptions{CacheMB: -1})
	if err != nil {
		return nil, err
	}
	env.Dev.SetFaults(ssd.FaultPlan{Seed: 99, Corrupt: ssd.Trigger{Prob: 1}, CorruptOnly: ".iso."})
	sc := ssd.NewScope()
	_, ferr := core.New(env.Graph, core.Config{
		MemoryBudget:  env.MemBudget,
		MaxSupersteps: 50,
		RunTag:        "iso",
		Ephemeral:     true,
		Scope:         sc,
	}).Run(servingProg(sources))
	if ferr == nil {
		return nil, fmt.Errorf("isolation: corrupt-scratch batch unexpectedly succeeded")
	}
	env.Dev.SetFaults(ssd.FaultPlan{})
	failedSt := sc.Stats()
	isoRead, isoWrite := failedSt.PagesRead, failedSt.PagesWritten
	for _, src := range sources {
		rep, _, err := RunMLVC(env, servingProg([]uint32{src}), RunOpts{MaxSupersteps: 50})
		if err != nil {
			return nil, err
		}
		isoRead += rep.PagesRead
		isoWrite += rep.PagesWritten
	}
	rows = append(rows, row{"isolation event", 1 + servingQueries, isoRead, isoWrite})

	base := float64(rows[0].pagesRead + rows[0].pagesWrite)
	for _, r := range rows {
		t.AddRow(
			r.name,
			fmt.Sprint(r.executions),
			fmt.Sprintf("%.1f", float64(r.pagesRead)/servingQueries),
			fmt.Sprintf("%.1f", float64(r.pagesWrite)/servingQueries),
			fmt.Sprintf("%.2fx", float64(r.pagesRead+r.pagesWrite)/base),
		)
	}
	return t, nil
}
