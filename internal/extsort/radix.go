package extsort

import "multilogvc/internal/vc"

// insertionMax is the batch size up to which SortByDst insertion-sorts: below
// it the 256-entry histogram of a radix pass costs more than the compares.
const insertionMax = 48

// SortByDst sorts recs by destination, stably: records with the same Dst keep
// the order they came in, so messages of one destination are delivered in
// send order. It is an LSD radix sort on Dst − min(Dst) over only the key
// bytes the batch's destination range occupies — time linear in len(recs),
// with no term in the width of the vertex range, so a thin batch over a wide
// interval costs no more than a dense one. Batches of at most insertionMax
// records are insertion-sorted, and an already sorted batch is left alone.
//
// scratch is the sort's second buffer: it must not overlap recs, is grown
// when shorter than recs, and is returned for the next call to reuse.
func SortByDst(recs, scratch []vc.Msg) []vc.Msg {
	n := len(recs)
	if n < 2 {
		return scratch
	}
	lo, hi, sorted := recs[0].Dst, recs[0].Dst, true
	for i := 1; i < n; i++ {
		d := recs[i].Dst
		sorted = sorted && d >= recs[i-1].Dst
		lo, hi = min(lo, d), max(hi, d)
	}
	if sorted {
		return scratch
	}
	if n <= insertionMax {
		insertionSort(recs)
		return scratch
	}

	// One histogram per key byte in use, all from a single pass.
	span := hi - lo
	digits := 0
	for ; digits < 4 && span>>(8*digits) != 0; digits++ {
	}
	var counts [4][256]int
	for i := range recs {
		k := recs[i].Dst - lo
		for d := 0; d < digits; d++ {
			counts[d][byte(k>>(8*d))]++
		}
	}

	if cap(scratch) < n {
		scratch = make([]vc.Msg, n)
	}
	src, dst := recs, scratch[:n]
	for d := 0; d < digits; d++ {
		c := &counts[d]
		if c[byte((src[0].Dst-lo)>>(8*d))] == n {
			continue // every key has the same byte here: the pass would move nothing
		}
		pos := 0
		for b := range c {
			c[b], pos = pos, pos+c[b]
		}
		for i := range src {
			b := byte((src[i].Dst - lo) >> (8 * d))
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
	return scratch
}

func insertionSort(recs []vc.Msg) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		j := i
		for ; j > 0 && recs[j-1].Dst > r.Dst; j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
	}
}
