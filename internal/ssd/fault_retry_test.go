package ssd

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func retryDev(t *testing.T, pol RetryPolicy) *Device {
	t.Helper()
	dev, err := Open(Config{PageSize: 512, Channels: 2, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func fillPages(t *testing.T, dev *Device, name string, n int) *File {
	t.Helper()
	f, err := dev.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, dev.PageSize())
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		if _, err := f.AppendPage(buf); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestTransientScriptedInvisible: one scripted transient fault is absorbed
// by a single retry; the caller never sees an error, and the stats record
// the fault, the retry, and a nonzero virtual backoff.
func TestTransientScriptedInvisible(t *testing.T) {
	dev := retryDev(t, RetryPolicy{})
	f := fillPages(t, dev, "a", 8)
	dev.SetFaults(FaultPlan{Transient: Trigger{At: []int64{2}}})
	buf := make([]byte, dev.PageSize())
	for i := 0; i < 8; i++ {
		if err := f.ReadPage(i, buf); err != nil {
			t.Fatalf("read %d: transient fault within budget surfaced: %v", i, err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("read %d: wrong data after retry", i)
		}
	}
	st := dev.Stats()
	if st.TransientFaults != 1 || st.Retries != 1 || st.RetriesExhausted != 0 {
		t.Fatalf("stats = faults:%d retries:%d exhausted:%d, want 1/1/0",
			st.TransientFaults, st.Retries, st.RetriesExhausted)
	}
	if st.RetryBackoff <= 0 {
		t.Fatal("retry charged no backoff to the virtual clock")
	}
	if st.StorageTime() != st.ReadTime+st.WriteTime+st.RetryBackoff {
		t.Fatal("StorageTime does not include RetryBackoff")
	}
}

// TestTransientConsecutiveExhausts: scripting 1+MaxRetries consecutive
// attempt indices makes one logical operation fail every attempt; the
// budget runs dry and the error wraps both sentinels.
func TestTransientConsecutiveExhausts(t *testing.T) {
	dev := retryDev(t, RetryPolicy{MaxRetries: 3})
	f := fillPages(t, dev, "a", 4)
	// Arming resets the attempt counter; the next read is attempt 0 and
	// its three retries are attempts 1-3.
	dev.SetFaults(FaultPlan{Transient: Trigger{At: []int64{0, 1, 2, 3}}})
	err := f.ReadPage(0, make([]byte, dev.PageSize()))
	if err == nil {
		t.Fatal("exhausted retry budget did not surface")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("%v does not wrap ErrTransient", err)
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("%v does not wrap ErrRetriesExhausted", err)
	}
	if errors.Is(err, ErrInjected) {
		t.Fatalf("%v wraps ErrInjected; transient exhaustion is not a permanent fault", err)
	}
	st := dev.Stats()
	if st.TransientFaults != 4 || st.Retries != 3 || st.RetriesExhausted != 1 {
		t.Fatalf("stats = faults:%d retries:%d exhausted:%d, want 4/3/1",
			st.TransientFaults, st.Retries, st.RetriesExhausted)
	}
}

// TestRetryDisabled: MaxRetries < 0 surfaces the first transient fault
// with no retry attempts charged.
func TestRetryDisabled(t *testing.T) {
	dev := retryDev(t, RetryPolicy{MaxRetries: -1})
	f := fillPages(t, dev, "a", 2)
	dev.SetFaults(FaultPlan{Transient: Trigger{At: []int64{0}}})
	err := f.ReadPage(0, make([]byte, dev.PageSize()))
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient with retries disabled, got %v", err)
	}
	st := dev.Stats()
	if st.Retries != 0 || st.RetryBackoff != 0 {
		t.Fatalf("disabled retry still charged %d retries, %v backoff", st.Retries, st.RetryBackoff)
	}
}

// TestBackoffGrowsAndCaps: consecutive retries double the backoff window
// from retryBaseBackoff up to retryMaxBackoff. Every fresh device draws
// the same jitter stream, so a device allowed k retries repeats the first
// k-1 delays of one allowed k-1, and the difference of their totals is
// retry k's delay, which must lie in its window's jitter envelope [w/2, w].
// Nine retries reach the cap at the eighth and hold it at the ninth, whose
// uncapped window would start past the cap.
func TestBackoffGrowsAndCaps(t *testing.T) {
	exhaust := func(retries int) time.Duration {
		dev := retryDev(t, RetryPolicy{MaxRetries: retries})
		f := fillPages(t, dev, "a", 2)
		at := make([]int64, retries+1) // the attempt and every retry fail
		for i := range at {
			at[i] = int64(i)
		}
		dev.SetFaults(FaultPlan{Transient: Trigger{At: at}})
		if err := f.ReadPage(0, make([]byte, dev.PageSize())); err == nil {
			t.Fatal("want exhaustion")
		}
		return dev.Stats().RetryBackoff
	}
	var prev time.Duration
	w := retryBaseBackoff
	for k := 1; k <= 9; k++ {
		total := exhaust(k)
		if d := total - prev; d < w/2 || d > w {
			t.Fatalf("retry %d waited %v, outside window %v's jitter envelope [%v, %v]", k, d, w, w/2, w)
		}
		prev = total
		w = min(2*w, retryMaxBackoff)
	}
}

// TestTransientProbDeterministic: the probabilistic injector draws from a
// seeded PRNG, so two devices running the same op sequence observe the
// same faults.
func TestTransientProbDeterministic(t *testing.T) {
	counts := make([]uint64, 2)
	for trial := 0; trial < 2; trial++ {
		dev := retryDev(t, RetryPolicy{})
		f := fillPages(t, dev, "a", 16)
		dev.SetFaults(FaultPlan{Seed: 99, Transient: Trigger{Prob: 0.3}})
		buf := make([]byte, dev.PageSize())
		for i := 0; i < 16; i++ {
			// p=0.3 with 3 retries exhausts with probability 0.3^4 ≈ 0.8%;
			// tolerate it by ignoring errors — the draw sequence is what
			// must repeat.
			_ = f.ReadPage(i, buf)
		}
		counts[trial] = dev.Stats().TransientFaults
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed produced different fault counts: %d vs %d", counts[0], counts[1])
	}
	if counts[0] == 0 {
		t.Fatal("p=0.3 over 16 reads produced no transient faults")
	}
}

// TestPermanentBeatsTransient: a permanently failed device reports the
// permanent error immediately; the retry layer must not spin on it.
func TestPermanentBeatsTransient(t *testing.T) {
	dev := retryDev(t, RetryPolicy{})
	f := fillPages(t, dev, "a", 2)
	dev.SetFaults(FaultPlan{Seed: 7, Transient: Trigger{Prob: 1.0}, Crash: true})
	err := f.ReadPage(0, make([]byte, dev.PageSize()))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected from a dead device, got %v", err)
	}
	if st := dev.Stats(); st.Retries != 0 {
		t.Fatalf("retry layer spent %d retries on a permanent fault", st.Retries)
	}
}

// TestTransientDisarm: a new plan replaces the old one (the scripted plan
// drops the probabilistic injector) and the zero plan disarms cleanly.
func TestTransientDisarm(t *testing.T) {
	dev := retryDev(t, RetryPolicy{MaxRetries: -1})
	f := fillPages(t, dev, "a", 2)
	dev.SetFaults(FaultPlan{Seed: 7, Transient: Trigger{Prob: 1.0}})
	if err := f.ReadPage(0, make([]byte, dev.PageSize())); err == nil {
		t.Fatal("armed probabilistic injector did not fire")
	}
	dev.SetFaults(FaultPlan{Transient: Trigger{At: []int64{0}}})
	dev.SetFaults(FaultPlan{})
	if err := f.ReadPage(0, make([]byte, dev.PageSize())); err != nil {
		t.Fatalf("disarmed device still failing: %v", err)
	}
}

// TestParseFaultPlan: the one-line spec every text surface takes. The
// accepted rows include the examples README and DESIGN print; every
// rejected row must be an error with no partial plan, never an idle plan.
func TestParseFaultPlan(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want FaultPlan
	}{
		{"", FaultPlan{}},
		{" \n", FaultPlan{}},
		{"transient=0.9,seed=7", FaultPlan{Seed: 7, Transient: Trigger{Prob: 0.9}}},
		{"transient=0.9,corrupt=0.01@.colidx,nospace=0.05,seed=7", FaultPlan{
			Seed: 7, Transient: Trigger{Prob: 0.9}, NoSpace: Trigger{Prob: 0.05},
			Corrupt: Trigger{Prob: 0.01}, CorruptOnly: ".colidx"}},
		{"corrupt=1", FaultPlan{Corrupt: Trigger{Prob: 1}}},
		{"seed=1", FaultPlan{Seed: 1}},
		{"nospace=0.5, transient=0", FaultPlan{NoSpace: Trigger{Prob: 0.5}}},
	} {
		got, err := ParseFaultPlan(tc.spec)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFaultPlan(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
	for _, spec := range []string{
		"transient=90%", "transient=1.5", "transient=-0.1", "transient=NaN", "transient=",
		"bogus=1", "seed=-1", "seed=x", "corrupt=@x", "transient", "transient=0.5,,seed=1",
	} {
		if got, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q) = %+v, want an error", spec, got)
		} else if !reflect.DeepEqual(got, FaultPlan{}) {
			t.Errorf("ParseFaultPlan(%q) returned a partial plan %+v beside its error", spec, got)
		}
	}
}

// TestSetFaultsReplacesAndResets: SetFaults replaces the armed plan rather
// than layering on it. A device armed with transient, corruption and a
// crash, then handed a plan naming only no-space, has the first three off
// with their attempt counters back at zero.
func TestSetFaultsReplacesAndResets(t *testing.T) {
	dev := retryDev(t, RetryPolicy{})
	f := fillPages(t, dev, "a", 4)
	buf := make([]byte, dev.PageSize())
	dev.SetFaults(FaultPlan{
		Transient: Trigger{At: []int64{1}},
		Corrupt:   Trigger{At: []int64{1000}}, CorruptOnly: "a",
		Crash: true, CrashAfter: 1000,
	})
	for i := 0; i < 4; i++ {
		if err := f.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if dev.transient.ops == 0 || dev.CorruptOps() != 4 || dev.crashLeft == 1000 {
		t.Fatalf("armed gates consumed nothing: transient ops %d, corrupt ops %d, crash left %d",
			dev.transient.ops, dev.CorruptOps(), dev.crashLeft)
	}

	dev.SetFaults(FaultPlan{NoSpace: Trigger{At: []int64{0}}})
	if dev.faultArmed.Load() || dev.corruptArmed.Load() || dev.crashArmed ||
		dev.transient.armed() || dev.corrupt.armed() || dev.corruptOnly != "" {
		t.Fatal("hazards the new plan does not name are still armed")
	}
	if dev.transient.ops != 0 || dev.CorruptOps() != 0 || dev.noSpace.ops != 0 {
		t.Fatalf("attempt counters not restarted: transient %d, corrupt %d, no-space %d",
			dev.transient.ops, dev.CorruptOps(), dev.noSpace.ops)
	}
	before := dev.Stats()
	for i := 0; i < 4; i++ {
		if err := f.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.AppendPage(buf); err != nil {
		t.Fatalf("one scripted no-space not absorbed by the post-reclaim retry: %v", err)
	}
	d := dev.Stats().Sub(before)
	if d.NoSpaceFaults != 1 || d.TransientFaults != 0 || d.CorruptionsInjected != 0 {
		t.Fatalf("after the replacing plan: no-space %d (want 1), transient %d, corruptions %d (want 0)",
			d.NoSpaceFaults, d.TransientFaults, d.CorruptionsInjected)
	}
	if dev.transient.ops != 0 || dev.CorruptOps() != 0 {
		t.Fatal("disarmed gates still count attempts")
	}
}

// TestSetFaultsConcurrentWithIO re-arms and heals the device while readers
// and a growing writer run; meaningful under -race. Errors are the plans'
// own classified faults; after the final heal every operation succeeds.
func TestSetFaultsConcurrentWithIO(t *testing.T) {
	dev := retryDev(t, RetryPolicy{})
	f := fillPages(t, dev, "a", 8)
	c := fillPages(t, dev, "c", 8) // the only file the plans corrupt (sticky)
	g, err := dev.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	plans := []FaultPlan{
		{Seed: 3, Transient: Trigger{Prob: 0.5}, Corrupt: Trigger{Prob: 0.1}, CorruptOnly: "c", NoSpace: Trigger{Prob: 0.5}},
		{},
		{Crash: true, CrashAfter: 3, Transient: Trigger{At: []int64{0, 2}}},
		{},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, dev.PageSize())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch w {
				case 0:
					_, err = g.AppendPage(buf)
				case 1:
					err = f.ReadPage(i%8, buf)
				default:
					err = c.ReadPage(i%8, buf)
				}
				if err != nil && !errors.Is(err, ErrTransient) && !errors.Is(err, ErrInjected) &&
					!errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrCorruptPage) {
					t.Errorf("worker %d: unclassified error %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		dev.SetFaults(plans[i%len(plans)])
	}
	dev.SetFaults(FaultPlan{})
	close(stop)
	wg.Wait()
	buf := make([]byte, dev.PageSize())
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("read after the final heal: %v", err)
	}
	if _, err := g.AppendPage(buf); err != nil {
		t.Fatalf("append after the final heal: %v", err)
	}
}
