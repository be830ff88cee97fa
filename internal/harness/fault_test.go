package harness

import (
	"errors"
	"testing"

	"multilogvc/internal/apps"
	"multilogvc/internal/ssd"
)

// TestFaultInjectionPropagates arms device failures at increasing depths
// and verifies every engine surfaces the error cleanly — no panics, no
// silent truncation of results.
func TestFaultInjectionPropagates(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}

	type runner struct {
		name string
		opts EnvOptions
		run  func(env *Env) error
	}
	runners := []runner{
		{"multilogvc", EnvOptions{}, func(env *Env) error {
			_, _, err := RunMLVC(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
			return err
		}},
		{"graphchi", EnvOptions{}, func(env *Env) error {
			_, _, err := RunGraphChi(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
			return err
		}},
		{"grafboost", EnvOptions{}, func(env *Env) error {
			_, _, err := RunGraFBoost(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
			return err
		}},
		// Cached variants: the error must reach the engine through cache
		// misses — never panic or deadlock.
		{"multilogvc-cached", EnvOptions{CacheMB: 4}, func(env *Env) error {
			_, _, err := RunMLVC(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
			return err
		}},
		{"graphchi-cached", EnvOptions{CacheMB: 4}, func(env *Env) error {
			_, _, err := RunGraphChi(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
			return err
		}},
		{"grafboost-cached", EnvOptions{CacheMB: 4}, func(env *Env) error {
			_, _, err := RunGraFBoost(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
			return err
		}},
	}

	for _, r := range runners {
		// Find how many device ops a clean run needs, then fail at a few
		// depths inside that window.
		env, err := Prepare(ds, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.run(env); err != nil {
			t.Fatalf("%s: clean run failed: %v", r.name, err)
		}
		st := env.Dev.Stats()
		total := int64(st.BatchReads + st.BatchWrites)
		if total < 10 {
			t.Fatalf("%s: too few ops (%d) to inject into", r.name, total)
		}
		for _, depth := range []int64{0, 1, total / 4, total / 2} {
			env, err := Prepare(ds, r.opts)
			if err != nil {
				t.Fatal(err)
			}
			env.Dev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: depth})
			err = r.run(env)
			if err == nil {
				t.Errorf("%s: injected failure at depth %d was swallowed", r.name, depth)
				continue
			}
			if !errors.Is(err, ssd.ErrInjected) {
				t.Errorf("%s: depth %d returned %v, want ErrInjected in chain", r.name, depth, err)
			}
		}
	}
}

// TestTransientFaultsInvisible: transient faults within the retry budget
// must never surface — the run succeeds with values identical to a
// fault-free run, and the absorbed faults appear in the per-superstep
// stats and report totals.
func TestTransientFaultsInvisible(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, cacheMB := range []int{-1, 4} {
		mode := "uncached"
		if cacheMB > 0 {
			mode = "cached"
		}
		env, err := Prepare(ds, EnvOptions{CacheMB: cacheMB})
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := RunMLVC(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
		if err != nil {
			t.Fatal(err)
		}
		st := env.Dev.Stats()
		total := int64(st.BatchReads + st.BatchWrites)

		env, err = Prepare(ds, EnvOptions{CacheMB: cacheMB})
		if err != nil {
			t.Fatal(err)
		}
		// One scripted transient fault in each quarter of the op window.
		env.Dev.SetFaults(ssd.FaultPlan{Transient: ssd.Trigger{At: []int64{1, total / 4, total / 2, 3 * total / 4}}})
		rep, got, err := RunMLVC(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 5})
		if err != nil {
			t.Fatalf("%s: transient faults within budget surfaced: %v", mode, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: value count %d != %d", mode, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: values diverge at vertex %d after retried faults", mode, i)
			}
		}
		if rep.TransientFaults == 0 || rep.Retries == 0 {
			t.Fatalf("%s: report shows %d transient faults, %d retries; want both > 0",
				mode, rep.TransientFaults, rep.Retries)
		}
		var ssFaults uint64
		for _, ss := range rep.Supersteps {
			ssFaults += ss.TransientFaults
		}
		if ssFaults != rep.TransientFaults {
			t.Errorf("%s: per-superstep faults sum to %d, report total is %d",
				mode, ssFaults, rep.TransientFaults)
		}
		if rep.RetryBackoff == 0 {
			t.Errorf("%s: retries charged no backoff to the virtual clock", mode)
		}
	}
}

// TestTransientExhaustionPropagates: with every attempt faulting, the
// retry budget runs out and the error must surface through every engine —
// cached and uncached — with both ErrTransient and ErrRetriesExhausted in
// the chain.
func TestTransientExhaustionPropagates(t *testing.T) {
	ds, err := CFMini(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	type runner struct {
		name string
		opts EnvOptions
		run  func(env *Env) error
	}
	runners := []runner{
		{"multilogvc", EnvOptions{}, func(env *Env) error {
			_, _, err := RunMLVC(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 3})
			return err
		}},
		{"multilogvc-cached", EnvOptions{CacheMB: 4}, func(env *Env) error {
			_, _, err := RunMLVC(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 3})
			return err
		}},
		{"graphchi", EnvOptions{}, func(env *Env) error {
			_, _, err := RunGraphChi(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 3})
			return err
		}},
		{"grafboost", EnvOptions{}, func(env *Env) error {
			_, _, err := RunGraFBoost(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 3})
			return err
		}},
		{"grafboost-cached", EnvOptions{CacheMB: 4}, func(env *Env) error {
			_, _, err := RunGraFBoost(env, &apps.PageRank{}, RunOpts{MaxSupersteps: 3})
			return err
		}},
	}
	for _, r := range runners {
		env, err := Prepare(ds, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		// Probability 1: every attempt faults, so every retry fails too
		// and the budget always exhausts.
		env.Dev.SetFaults(ssd.FaultPlan{Seed: 42, Transient: ssd.Trigger{Prob: 1.0}})
		err = r.run(env)
		if err == nil {
			t.Errorf("%s: exhausted retries did not surface", r.name)
			continue
		}
		if !errors.Is(err, ssd.ErrTransient) {
			t.Errorf("%s: %v does not wrap ErrTransient", r.name, err)
		}
		if !errors.Is(err, ssd.ErrRetriesExhausted) {
			t.Errorf("%s: %v does not wrap ErrRetriesExhausted", r.name, err)
		}
	}
}

// TestFaultDisarm verifies a disarmed device works again.
func TestFaultDisarm(t *testing.T) {
	ds, _ := CFMini(Tiny)
	env, err := Prepare(ds, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env.Dev.SetFaults(ssd.FaultPlan{Crash: true})
	if _, _, err := RunMLVC(env, &apps.BFS{Source: 0}, RunOpts{MaxSupersteps: 3}); err == nil {
		t.Fatal("armed device did not fail")
	}
	env.Dev.SetFaults(ssd.FaultPlan{})
	if _, _, err := RunMLVC(env, &apps.BFS{Source: 0}, RunOpts{MaxSupersteps: 3}); err != nil {
		t.Fatalf("disarmed device still failing: %v", err)
	}
}
