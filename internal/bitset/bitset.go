// Package bitset provides dense bit vectors used throughout MultiLogVC for
// active-vertex sets, activity history, and page-utilization bookkeeping.
//
// A Set is a fixed-length vector of bits indexed from 0. The zero value is
// an empty, zero-length set; use New to create a set of a given length.
// Sets are not safe for concurrent mutation; guard them externally or use
// one set per worker and merge with Or.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a fixed-length dense bit vector.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set capable of holding n bits, all initially zero.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the set holds.
func (s *Set) Len() int { return s.n }

// Add sets bit i, growing the set to hold it, and reports whether the bit
// was clear.
func (s *Set) Add(i int) bool {
	if i >= s.n {
		s.words = append(s.words, make([]uint64, i/wordBits+1-len(s.words))...)
		s.n = i + 1
	} else if s.Test(i) {
		return false
	}
	s.Set(i)
	return true
}

// Has is Test for any i >= 0: a bit past Len is clear.
func (s *Set) Has(i int) bool { return i < s.n && s.Test(i) }

// Set sets bit i to 1.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is 1.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetTo sets bit i to the given value.
func (s *Set) SetTo(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Reset zeroes every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AnyInRange reports whether any bit in [lo, hi) is set.
func (s *Set) AnyInRange(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	if loW == hiW {
		mask := (^uint64(0) << (uint(lo) % wordBits)) &
			(^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits))
		return s.words[loW]&mask != 0
	}
	if s.words[loW]&(^uint64(0)<<(uint(lo)%wordBits)) != 0 {
		return true
	}
	for w := loW + 1; w < hiW; w++ {
		if s.words[w] != 0 {
			return true
		}
	}
	return s.words[hiW]&(^uint64(0)>>(wordBits-1-uint(hi-1)%wordBits)) != 0
}

// Range calls fn for each set bit in ascending order. If fn returns false,
// iteration stops.
func (s *Set) Range(fn func(i int) bool) {
	s.RangeInRange(0, s.n, fn)
}

// RangeInRange calls fn for each set bit in [lo, hi) in ascending order.
// If fn returns false, iteration stops.
func (s *Set) RangeInRange(lo, hi int, fn func(i int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return
	}
	for wi := lo / wordBits; wi <= (hi-1)/wordBits; wi++ {
		w := s.words[wi]
		if w == 0 {
			continue
		}
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			i := base + b
			if i >= hi {
				return
			}
			if i >= lo {
				if !fn(i) {
					return
				}
			}
			w &= w - 1
		}
	}
}

// Or sets s to the bitwise OR of s and t. Panics if lengths differ.
func (s *Set) Or(t *Set) {
	s.checkLen(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndNot clears in s every bit that is set in t. Panics if lengths differ.
func (s *Set) AndNot(t *Set) {
	s.checkLen(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Words returns a copy of the set's backing 64-bit words, for
// serialization (checkpointing). Bits past Len are zero.
func (s *Set) Words() []uint64 {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return w
}

// SetWords overwrites the set's contents from words previously returned by
// Words on a set of the same length. Panics on a word-count mismatch.
func (s *Set) SetWords(words []uint64) {
	if len(words) != len(s.words) {
		panic(fmt.Sprintf("bitset: word count mismatch %d != %d", len(words), len(s.words)))
	}
	copy(s.words, words)
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

func (s *Set) checkLen(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: length mismatch %d != %d", s.n, t.n))
	}
}
