package extsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

func dev() *ssd.Device {
	return ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
}

func sliceSource(recs []vc.Msg) Source {
	return func(yield func(vc.Msg) error) error {
		for _, r := range recs {
			if err := yield(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func randomRecs(rng *rand.Rand, n, dstRange int) []vc.Msg {
	recs := make([]vc.Msg, n)
	for i := range recs {
		recs[i] = vc.Msg{
			Dst:  uint32(rng.Intn(dstRange)),
			Src:  rng.Uint32(),
			Data: uint32(rng.Intn(100)),
		}
	}
	return recs
}

func TestInMemorySort(t *testing.T) {
	d := dev()
	recs := []vc.Msg{{Dst: 5}, {Dst: 1}, {Dst: 3}}
	var out []vc.Msg
	st, err := Sort(d, "s", sliceSource(recs), 1<<20, nil, func(r vc.Msg) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 0 {
		t.Fatalf("in-memory sort spilled %d runs", st.Runs)
	}
	if len(out) != 3 || out[0].Dst != 1 || out[1].Dst != 3 || out[2].Dst != 5 {
		t.Fatalf("out = %v", out)
	}
	if st.Input != 3 || st.Output != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExternalSortSpillsRuns(t *testing.T) {
	d := dev()
	rng := rand.New(rand.NewSource(1))
	recs := randomRecs(rng, 1000, 500)
	// Budget for ~50 records per run.
	var out []vc.Msg
	st, err := Sort(d, "s", sliceSource(recs), 50*RecordBytes, nil, func(r vc.Msg) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 2 {
		t.Fatalf("expected multiple runs, got %d", st.Runs)
	}
	if len(out) != 1000 {
		t.Fatalf("output %d records, want 1000", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Dst > out[i].Dst {
			t.Fatal("output not sorted")
		}
	}
	// Run files cleaned up.
	for _, name := range d.ListFiles() {
		t.Fatalf("leftover file %q", name)
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	d := dev()
	rng := rand.New(rand.NewSource(2))
	recs := randomRecs(rng, 700, 60)
	counts := make(map[vc.Msg]int)
	for _, r := range recs {
		counts[r]++
	}
	_, err := Sort(d, "s", sliceSource(recs), 64*RecordBytes, nil, func(r vc.Msg) error {
		counts[r]--
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range counts {
		if c != 0 {
			t.Fatalf("record %v count mismatch %d", r, c)
		}
	}
}

func TestCombineInMemory(t *testing.T) {
	d := dev()
	recs := []vc.Msg{{Dst: 1, Data: 10}, {Dst: 1, Data: 20}, {Dst: 2, Data: 5}}
	var out []vc.Msg
	st, err := Sort(d, "s", sliceSource(recs), 1<<20,
		func(a, b uint32) uint32 { return a + b },
		func(r vc.Msg) error { out = append(out, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Data != 30 || out[1].Data != 5 {
		t.Fatalf("out = %v", out)
	}
	if st.Combined != 1 || st.Output != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombineExternalMatchesSum(t *testing.T) {
	d := dev()
	rng := rand.New(rand.NewSource(3))
	recs := randomRecs(rng, 2000, 30)
	want := make(map[uint32]uint32)
	for _, r := range recs {
		want[r.Dst] += r.Data
	}
	got := make(map[uint32]uint32)
	st, err := Sort(d, "s", sliceSource(recs), 64*RecordBytes,
		func(a, b uint32) uint32 { return a + b },
		func(r vc.Msg) error {
			if _, dup := got[r.Dst]; dup {
				t.Fatalf("dst %d emitted twice", r.Dst)
			}
			got[r.Dst] = r.Data
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 2 {
		t.Fatalf("expected external sort, runs = %d", st.Runs)
	}
	for dst, sum := range want {
		if got[dst] != sum {
			t.Fatalf("dst %d sum = %d, want %d", dst, got[dst], sum)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	d := dev()
	st, err := Sort(d, "s", sliceSource(nil), 1<<20, nil, func(vc.Msg) error {
		t.Fatal("emit on empty input")
		return nil
	})
	if err != nil || st.Input != 0 || st.Output != 0 {
		t.Fatalf("st = %+v err = %v", st, err)
	}
}

// Property: external sort output equals sort.Slice of the input.
func TestQuickSortMatchesStdlib(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		recs := randomRecs(rng, n, 50)
		budget := int64(budgetRaw%40+2) * RecordBytes
		var out []vc.Msg
		_, err := Sort(dev(), "s", sliceSource(recs), budget, nil, func(r vc.Msg) error {
			out = append(out, r)
			return nil
		})
		if err != nil || len(out) != n {
			return false
		}
		want := make([]vc.Msg, n)
		copy(want, recs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Dst < want[j].Dst })
		// Compare dst sequence (full record order within a dst is
		// unspecified) and multiset equality.
		for i := range out {
			if out[i].Dst != want[i].Dst {
				return false
			}
		}
		counts := make(map[vc.Msg]int)
		for _, r := range out {
			counts[r]++
		}
		for _, r := range recs {
			counts[r]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
