package ssd

import (
	"context"
	"errors"
	"testing"
)

func capDev(t *testing.T, capacity int64) *Device {
	t.Helper()
	dev, err := Open(Config{PageSize: 512, Channels: 2, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestQuotaEnforced: writes up to the quota succeed and are accounted;
// the first write past it fails classified as ErrNoSpace without
// corrupting accounting.
func TestQuotaEnforced(t *testing.T) {
	dev := capDev(t, 4*512)
	f, err := dev.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, dev.PageSize())
	for i := 0; i < 4; i++ {
		if _, err := f.AppendPage(buf); err != nil {
			t.Fatalf("append %d within quota: %v", i, err)
		}
	}
	if got := dev.UsedBytes(); got != 4*512 {
		t.Fatalf("UsedBytes = %d, want %d", got, 4*512)
	}
	if _, err := f.AppendPage(buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append past quota = %v, want ErrNoSpace", err)
	}
	if got := dev.UsedBytes(); got != 4*512 {
		t.Fatalf("UsedBytes after failed append = %d, want %d", got, 4*512)
	}
	if st := dev.Stats(); st.NoSpaceFaults == 0 {
		t.Fatal("NoSpaceFaults not counted")
	}
	// Overwriting in place needs no new pages and must still work.
	if err := f.WritePageRange(0, buf); err != nil {
		t.Fatalf("in-place overwrite at full quota: %v", err)
	}
}

// TestQuotaFreedByTruncate: truncating a file returns its pages to the
// pool, letting a previously failing write proceed.
func TestQuotaFreedByTruncate(t *testing.T) {
	dev := capDev(t, 4*512)
	buf := make([]byte, dev.PageSize())
	a, _ := dev.Create("a")
	b, _ := dev.Create("b")
	for i := 0; i < 3; i++ {
		if _, err := a.AppendPage(buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AppendPage(buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append at full quota = %v, want ErrNoSpace", err)
	}
	if err := a.Truncate(); err != nil {
		t.Fatal(err)
	}
	if got := dev.UsedBytes(); got != 512 {
		t.Fatalf("UsedBytes after truncate = %d, want 512", got)
	}
	if _, err := b.AppendPage(buf); err != nil {
		t.Fatalf("append after truncate freed space: %v", err)
	}
}

// TestReclaimerAbsorbsQuotaHit: a reclaimer that frees space makes the
// triggering write succeed on its single retry — the caller never sees an
// error, and the sweep is accounted.
func TestReclaimerAbsorbsQuotaHit(t *testing.T) {
	dev := capDev(t, 4*512)
	buf := make([]byte, dev.PageSize())
	old, _ := dev.Create("old")
	for i := 0; i < 3; i++ {
		if _, err := old.AppendPage(buf); err != nil {
			t.Fatal(err)
		}
	}
	remove := dev.AddReclaimer(func() { _ = old.Truncate() })
	defer remove()

	f, _ := dev.Create("new")
	for i := 0; i < 4; i++ {
		if _, err := f.AppendPage(buf); err != nil {
			t.Fatalf("append %d with reclaimer armed: %v", i, err)
		}
	}
	st := dev.Stats()
	if st.Reclaims == 0 {
		t.Fatal("reclaim sweep not counted")
	}
	if st.ReclaimedBytes != 3*512 {
		t.Fatalf("ReclaimedBytes = %d, want %d", st.ReclaimedBytes, 3*512)
	}
	// The quota hit itself is still recorded even though it was absorbed.
	if st.NoSpaceFaults == 0 {
		t.Fatal("absorbed quota hit not counted")
	}
}

// TestReclaimerUnregister: a removed hook no longer runs, so the quota hit
// surfaces.
func TestReclaimerUnregister(t *testing.T) {
	dev := capDev(t, 2*512)
	buf := make([]byte, dev.PageSize())
	old, _ := dev.Create("old")
	if _, err := old.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	remove := dev.AddReclaimer(func() { _ = old.Truncate() })
	remove()
	f, _ := dev.Create("new")
	if _, err := f.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AppendPage(buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append with unregistered reclaimer = %v, want ErrNoSpace", err)
	}
}

// TestNoSpaceScripted: one scripted fault is absorbed by the post-reclaim
// retry; two consecutive faults surface classified.
func TestNoSpaceScripted(t *testing.T) {
	dev := capDev(t, 0) // unlimited quota: injection only
	buf := make([]byte, dev.PageSize())
	f, _ := dev.Create("a")

	dev.SetFaults(FaultPlan{NoSpace: Trigger{At: []int64{0}}})
	if _, err := f.AppendPage(buf); err != nil {
		t.Fatalf("single scripted no-space not absorbed by retry: %v", err)
	}

	dev.SetFaults(FaultPlan{NoSpace: Trigger{At: []int64{0, 1}}})
	if _, err := f.AppendPage(buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("double scripted no-space = %v, want ErrNoSpace", err)
	}

	dev.SetFaults(FaultPlan{}) // disarm
	if _, err := f.AppendPage(buf); err != nil {
		t.Fatalf("append after disarm: %v", err)
	}
}

// TestNoSpaceProbabilistic: with p = 1 every attempt fails (classified);
// with p <= 0 the injection is disarmed.
func TestNoSpaceProbabilistic(t *testing.T) {
	dev := capDev(t, 0)
	buf := make([]byte, dev.PageSize())
	f, _ := dev.Create("a")

	dev.SetFaults(FaultPlan{Seed: 7, NoSpace: Trigger{Prob: 1}})
	if _, err := f.AppendPage(buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("p=1 no-space = %v, want ErrNoSpace", err)
	}
	dev.SetFaults(FaultPlan{})
	if _, err := f.AppendPage(buf); err != nil {
		t.Fatalf("append after disarm: %v", err)
	}
}

// TestRemoveReturnsPages: removing a file frees its quota share.
func TestRemoveReturnsPages(t *testing.T) {
	dev := capDev(t, 2*512)
	buf := make([]byte, dev.PageSize())
	a, _ := dev.Create("a")
	if _, err := a.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	if err := dev.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := dev.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes after Remove = %d, want 0", got)
	}
	b, _ := dev.Create("b")
	if _, err := b.AppendPage(buf); err != nil {
		t.Fatalf("append after Remove freed space: %v", err)
	}
}

// TestRetryAbandonedOnCancel: a cancelled run context stops the transient
// retry loop immediately instead of burning the whole backoff budget, and
// the surfaced error carries the context error.
func TestRetryAbandonedOnCancel(t *testing.T) {
	dev := retryDev(t, RetryPolicy{MaxRetries: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := NewScope()
	sc.SetRunContext(ctx)
	f := fillPages(t, dev, "a", 2).Scoped(sc)

	dev.SetFaults(FaultPlan{Transient: Trigger{At: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}})
	err := f.ReadPage(0, make([]byte, dev.PageSize()))
	if err == nil {
		t.Fatal("cancelled retry loop surfaced no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%v does not wrap context.Canceled", err)
	}
	if st := dev.Stats(); st.Retries >= 10 {
		t.Fatalf("retry loop ran %d retries despite cancelled context", st.Retries)
	}
}
