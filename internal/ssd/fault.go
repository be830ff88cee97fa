package ssd

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file is the device's whole fault surface: a FaultPlan says
// everything a device can be told to do wrong, SetFaults arms it, and
// ParseFaultPlan reads the one-line spec the text surfaces (mlvcd -fault,
// POST /debug/fault) take. CorruptStoredPage (integrity.go) is direct
// damage, not a schedule, and stays apart.

// Trigger says when one hazard fires: on the scripted attempts At (0-based,
// counted from the SetFaults call that armed them) and, on every other
// attempt, independently with probability Prob. The zero Trigger never
// fires.
type Trigger struct {
	At   []int64
	Prob float64
}

// FaultPlan is one complete fault schedule. The zero plan is a healthy
// device.
type FaultPlan struct {
	// Seed makes the probabilistic draws reproducible. Each hazard draws
	// from its own splitmix64 stream: Corrupt starts at Seed, Transient at
	// Seed+1, NoSpace at Seed+2.
	Seed uint64
	// Transient fails page-operation attempts with ErrTransient. Attempts
	// count every page operation including retries, so scripting k
	// consecutive indices makes one logical operation fail k times in a
	// row — how tests drive the retry budget dry. Retried attempts redraw:
	// a rate p surfaces to callers with probability p^(1+MaxRetries).
	Transient Trigger
	// Corrupt flips a stored bit under a physical page read and leaves the
	// recorded checksum stale (sticky, like a failed cell). Attempts count
	// physical reads of files whose name contains CorruptOnly ("" matches
	// every file). A CorruptOnly filter with a zero Corrupt trigger damages
	// nothing and only counts matching reads (see CorruptOps), which lets a
	// test measure a reference run and then script an exact read.
	Corrupt     Trigger
	CorruptOnly string
	// NoSpace fails growth attempts as if the device were full. Attempts
	// count every page write that requests new pages, including the
	// post-reclaim retry, so two consecutive indices fail one logical write
	// on both sides of reclamation — the classified ErrNoSpace exit.
	NoSpace Trigger
	// Crash kills the device permanently: the next CrashAfter page
	// operations succeed, then every one fails with ErrInjected and no
	// amount of retrying helps.
	Crash      bool
	CrashAfter int64
}

// injector is one armed Trigger: the scripted attempts, the probability,
// the PRNG state and the attempt counter. Guarded by Device.mu.
type injector struct {
	at   []int64
	prob float64
	rng  uint64
	ops  int64
}

func newInjector(t Trigger, seed uint64) injector {
	return injector{at: slices.Clone(t.At), prob: t.Prob, rng: seed}
}

func (in *injector) armed() bool { return len(in.at) > 0 || in.prob > 0 }

// hit consumes one attempt and reports whether the hazard fires on it.
func (in *injector) hit() bool {
	op := in.ops
	in.ops++
	if slices.Contains(in.at, op) {
		return true
	}
	return in.prob > 0 && float64(splitmix64(&in.rng)>>11)/float64(1<<53) < in.prob
}

// SetFaults replaces the armed fault plan and restarts every attempt
// counter; SetFaults(FaultPlan{}) heals the device.
func (d *Device) SetFaults(p FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashArmed, d.crashLeft = p.Crash, p.CrashAfter
	d.corrupt = newInjector(p.Corrupt, p.Seed)
	d.transient = newInjector(p.Transient, p.Seed+1)
	d.noSpace = newInjector(p.NoSpace, p.Seed+2)
	d.corruptOnly = p.CorruptOnly
	d.faultArmed.Store(p.Crash || d.transient.armed())
	d.corruptArmed.Store(d.corrupt.armed() || p.CorruptOnly != "")
	d.noSpaceArmed.Store(d.cfg.Capacity > 0 || d.noSpace.armed())
}

// faultCheck consumes one attempt credit; it returns the armed permanent
// or transient error for this attempt, permanent first (a device that is
// dying permanently reports the permanent error). A transient fault is
// counted against the issuing scope.
func (d *Device) faultCheck(sc *IOScope) error {
	if !d.faultArmed.Load() {
		return nil
	}
	d.mu.Lock()
	if d.crashArmed {
		if d.crashLeft <= 0 {
			d.mu.Unlock()
			return ErrInjected
		}
		d.crashLeft--
	}
	hit := d.transient.hit()
	d.mu.Unlock()
	if !hit {
		return nil
	}
	d.account(sc, 0, func(s *Stats, _ *StageStats) { s.TransientFaults++ })
	return ErrTransient
}

// ParseFaultPlan reads the one-line fault spec: comma-separated
//
//	transient=P   nospace=P   corrupt=P[@NAME]   seed=N
//
// with P a probability in [0,1], NAME the CorruptOnly substring and N an
// unsigned integer, e.g. "transient=0.9,corrupt=0.01@.colidx,seed=7". The
// empty spec is the zero plan. Anything else is an error: a fault setting
// that does not parse must never read as a healthy device.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	var p FaultPlan
	if spec = strings.TrimSpace(spec); spec == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		if err := p.set(strings.TrimSpace(kv)); err != nil {
			return FaultPlan{}, fmt.Errorf("ssd: fault spec %q: %w", kv, err)
		}
	}
	return p, nil
}

// set applies one key=value setting of the spec.
func (p *FaultPlan) set(kv string) (err error) {
	key, val, _ := strings.Cut(kv, "=")
	var prob *float64
	switch key {
	case "seed":
		p.Seed, err = strconv.ParseUint(val, 10, 64)
		return err
	case "transient":
		prob = &p.Transient.Prob
	case "nospace":
		prob = &p.NoSpace.Prob
	case "corrupt":
		prob = &p.Corrupt.Prob
		val, p.CorruptOnly, _ = strings.Cut(val, "@")
	default:
		return errors.New("want transient=P, corrupt=P[@NAME], nospace=P or seed=N")
	}
	if *prob, err = strconv.ParseFloat(val, 64); err != nil {
		return err
	}
	if !(*prob >= 0 && *prob <= 1) {
		return errors.New("probability outside [0,1]")
	}
	return nil
}
