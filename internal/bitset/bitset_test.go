package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetClearTest(t *testing.T) {
	s := New(200)
	for i := 0; i < 200; i += 3 {
		s.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		if got := s.Test(i); got != want {
			t.Fatalf("Test(%d) = %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 200; i += 6 {
		s.Clear(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0 && i%6 != 0
		if got := s.Test(i); got != want {
			t.Fatalf("after clear: Test(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestSetTo(t *testing.T) {
	s := New(10)
	s.SetTo(4, true)
	if !s.Test(4) {
		t.Fatal("SetTo true did not set")
	}
	s.SetTo(4, false)
	if s.Test(4) {
		t.Fatal("SetTo false did not clear")
	}
}

func TestCount(t *testing.T) {
	s := New(1000)
	if s.Count() != 0 {
		t.Fatalf("empty Count = %d", s.Count())
	}
	for i := 0; i < 1000; i += 7 {
		s.Set(i)
	}
	want := 0
	for i := 0; i < 1000; i += 7 {
		want++
	}
	if got := s.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	s.Reset()
	if s.Count() != 0 || s.Any() {
		t.Fatal("Reset did not clear all bits")
	}
}

func TestAny(t *testing.T) {
	s := New(130)
	if s.Any() {
		t.Fatal("empty set reports Any")
	}
	s.Set(129)
	if !s.Any() {
		t.Fatal("Any missed last bit")
	}
}

func TestAnyInRange(t *testing.T) {
	s := New(300)
	s.Set(150)
	cases := []struct {
		lo, hi int
		want   bool
	}{
		{0, 300, true},
		{0, 150, false},
		{150, 151, true},
		{151, 300, false},
		{140, 160, true},
		{150, 150, false}, // empty range
		{128, 192, true},  // spans word boundary
		{0, 64, false},
	}
	for _, c := range cases {
		if got := s.AnyInRange(c.lo, c.hi); got != c.want {
			t.Errorf("AnyInRange(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestAnyInRangeSameWord(t *testing.T) {
	s := New(64)
	s.Set(5)
	if s.AnyInRange(0, 5) {
		t.Fatal("AnyInRange(0,5) should be false")
	}
	if !s.AnyInRange(5, 6) {
		t.Fatal("AnyInRange(5,6) should be true")
	}
	if !s.AnyInRange(0, 64) {
		t.Fatal("AnyInRange(0,64) should be true")
	}
}

func TestRange(t *testing.T) {
	s := New(500)
	want := []int{0, 63, 64, 65, 127, 128, 300, 499}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.Range(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i++ {
		s.Set(i)
	}
	n := 0
	s.Range(func(i int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d bits, want 5", n)
	}
}

func TestRangeInRange(t *testing.T) {
	s := New(256)
	for i := 0; i < 256; i += 2 {
		s.Set(i)
	}
	var got []int
	s.RangeInRange(63, 70, func(i int) bool {
		got = append(got, i)
		return true
	})
	want := []int{64, 66, 68}
	if len(got) != len(want) {
		t.Fatalf("RangeInRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RangeInRange = %v, want %v", got, want)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a, b := New(130), New(130)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(129)

	or := a.Clone()
	or.Or(b)
	for _, i := range []int{1, 100, 129} {
		if !or.Test(i) {
			t.Fatalf("Or missing bit %d", i)
		}
	}
	if or.Count() != 3 {
		t.Fatalf("Or Count = %d, want 3", or.Count())
	}

	andnot := a.Clone()
	andnot.AndNot(b)
	if andnot.Count() != 1 || !andnot.Test(1) {
		t.Fatalf("AndNot produced wrong set, count=%d", andnot.Count())
	}
}

// TestCopyFromClone: a Clone is a copy independent of its source.
func TestCopyFromClone(t *testing.T) {
	a := New(70)
	a.Set(69)
	c := a.Clone()
	a.Clear(69)
	if !c.Test(69) {
		t.Fatal("Clone is not independent")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths did not panic")
		}
	}()
	New(10).Or(New(11))
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesSetIndices(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		rng := rand.New(rand.NewSource(seed))
		s := New(n)
		ref := make(map[int]bool)
		for k := 0; k < 300; k++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Set(i)
				ref[i] = true
			} else {
				s.Clear(i)
				delete(ref, i)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := range ref {
			if !s.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Range visits exactly the set bits in ascending order.
func TestQuickRangeOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1000) + 1
		s := New(n)
		for k := 0; k < 100; k++ {
			s.Set(rng.Intn(n))
		}
		prev := -1
		ok := true
		s.Range(func(i int) bool {
			if i <= prev || !s.Test(i) {
				ok = false
				return false
			}
			prev = i
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AnyInRange agrees with a brute-force scan.
func TestQuickAnyInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 2
		s := New(n)
		for k := 0; k < 10; k++ {
			s.Set(rng.Intn(n))
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		brute := false
		for i := lo; i < hi; i++ {
			if s.Test(i) {
				brute = true
				break
			}
		}
		return s.AnyInRange(lo, hi) == brute
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	s := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(i & (1<<20 - 1))
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

func BenchmarkRangeSparse(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 1024 {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Range(func(int) bool { n++; return true })
	}
}

func TestAddGrowsAndHasLooksPastLen(t *testing.T) {
	var s Set // the zero Set grows from nothing
	if s.Has(0) || !s.Add(69) || s.Add(69) || !s.Add(3) {
		t.Fatal("Add must report a clear bit once")
	}
	if s.Len() != 70 || s.Count() != 2 || !s.Has(3) || !s.Has(69) || s.Has(68) || s.Has(70) || s.Has(1<<20) {
		t.Fatalf("after Add(69), Add(3): len %d, count %d", s.Len(), s.Count())
	}
	if !s.Add(199) || s.Len() != 200 || s.AnyInRange(70, 199) || !s.Has(199) || !s.Has(69) {
		t.Fatalf("after Add(199): len %d, count %d", s.Len(), s.Count())
	}
	s.Reset()
	if s.Len() != 200 || s.Any() || !s.Add(5) {
		t.Fatal("Reset keeps the length and clears every bit")
	}
}
