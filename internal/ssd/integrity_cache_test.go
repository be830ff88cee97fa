package ssd_test

// Integrity × page-cache interaction: a corrupt page must never be
// laundered into a clean cache hit, and prefetch must not hide damage
// from the demand path where recovery policy lives.

import (
	"bytes"
	"errors"
	"testing"

	"multilogvc/internal/ssd"
)

func TestCorruptPageNeverCached(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 4)
	if err := dev.CorruptStoredPage("data", 1); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, ps)
	if err := f.ReadPage(1, buf); !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("miss-fill of corrupt page err = %v, want ErrCorruptPage", err)
	}
	if c.Contains(f.ID(), 1) {
		t.Fatal("corrupt page entered the cache")
	}
	// The second read must re-detect, not serve a laundered hit.
	if err := f.ReadPage(1, buf); !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("repeat read err = %v, want ErrCorruptPage", err)
	}
}

func TestWarmPagesSkipsCorrupt(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 4)
	if err := dev.CorruptStoredPage("data", 2); err != nil {
		t.Fatal(err)
	}

	warmed, _, err := f.WarmPages([]int{0, 1, 2, 3}, false, nil)
	if err != nil {
		t.Fatalf("warm with one corrupt page errored: %v", err)
	}
	for _, p := range warmed {
		if p == 2 {
			t.Fatal("corrupt page reported as warmed")
		}
	}
	if c.Contains(f.ID(), 2) {
		t.Fatal("corrupt page cached by prefetch")
	}
	if !c.Contains(f.ID(), 0) || !c.Contains(f.ID(), 3) {
		t.Fatal("healthy pages not warmed past the corrupt one")
	}
	// Demand read still detects the damage.
	buf := make([]byte, ps)
	if err := f.ReadPage(2, buf); !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("demand read err = %v, want ErrCorruptPage", err)
	}
}

// TestCachedCopyOutlivesFlashDamage documents the DRAM-outlives-flash
// semantics: a page cached before its stored copy is damaged keeps
// serving clean data from the cache, while an offline scrub — which reads
// the store directly — still finds the damage.
func TestCachedCopyOutlivesFlashDamage(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 4)

	buf := make([]byte, ps)
	if err := f.ReadPage(1, buf); err != nil { // cache it clean
		t.Fatal(err)
	}
	if err := dev.CorruptStoredPage("data", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatalf("cached read after flash damage errored: %v", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{1}, ps)) {
		t.Fatal("cached read returned damaged bytes")
	}

	res, err := dev.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].OK() {
		t.Fatalf("scrub missed cached-over damage: %+v", res)
	}
	_ = c
}
