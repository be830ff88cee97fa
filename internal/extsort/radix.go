package extsort

import (
	"encoding/binary"
	"fmt"

	"multilogvc/internal/vc"
)

// insertionMax is the batch size up to which a sort insertion-sorts: below
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
// scratch is the sort's second buffer, which holds records encoded as
// PutRecord lays them out: it must not overlap recs, is grown when shorter
// than recs, and is returned for the next call to reuse.
func SortByDst(recs []vc.Msg, scratch []byte) []byte {
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
	var r radix
	r.init(lo, hi-lo)
	for i := range recs {
		r.count(recs[i].Dst - lo)
	}
	if cap(scratch) < n*RecordBytes {
		scratch = make([]byte, n*RecordBytes)
	}
	moves, m := r.plan(n, recs[0].Dst-lo)
	r.passes(moves[:m], recs, scratch[:n*RecordBytes])
	return scratch
}

// SortEncoded decodes the records held in blocks — blockSize bytes each, of
// which records returns the part holding encoded records (PutRecord's
// layout) — into recs, sorted by destination and stable in block order, as
// SortByDst would sort them decoded. Its first pass reads the encoded
// destinations for the histograms and its first scatter decodes each record
// straight into its sorted slot, so a batch whose destinations span at most
// 256 vertices costs one pass over the encoded bytes and one decoding
// scatter. Every destination must lie in [lo, hi); one outside is an error,
// and recs then holds no sorted batch. blocks is the sort's scratch after its
// first scatter, so what it held is gone afterwards.
func SortEncoded(recs []vc.Msg, blocks []byte, blockSize int, records func(block []byte) []byte, lo, hi uint32) ([]vc.Msg, error) {
	span := hi - lo
	if hi < lo {
		span = 0
	}
	var r radix
	r.init(lo, max(span, 1)-1)
	n, k0 := 0, uint32(0)
	for b := blocks; len(b) >= blockSize && blockSize > 0; b = b[blockSize:] {
		enc := records(b[:blockSize])
		if len(enc) >= RecordBytes && n == 0 {
			k0 = binary.LittleEndian.Uint32(enc) - lo
		}
		for ; len(enc) >= RecordBytes; enc = enc[RecordBytes:] {
			k := binary.LittleEndian.Uint32(enc) - lo
			if k >= span {
				return recs[:0], fmt.Errorf("extsort: record to vertex %d outside the batch's vertices [%d, %d)", k+lo, lo, hi)
			}
			r.count(k)
			n++
		}
	}
	if cap(recs) < n {
		recs = make([]vc.Msg, n)
	}
	recs = recs[:n]
	moves, m := r.plan(n, k0)
	if n <= insertionMax || m == 0 {
		i := 0
		for b := blocks; len(b) >= blockSize && i < n; b = b[blockSize:] {
			i += decode(recs[i:], records(b[:blockSize]))
		}
		insertionSort(recs)
		return recs, nil
	}
	shift, c := uint(8*moves[0]), &r.counts[moves[0]]
	for b := blocks; len(b) >= blockSize; b = b[blockSize:] {
		scatterDecode(c, shift, lo, recs, records(b[:blockSize]))
	}
	r.passes(moves[1:m], recs, blocks[:n*RecordBytes])
	return recs, nil
}

// radix is the one LSD radix sort both entries run: a 256-bucket histogram
// for each byte of the key Dst − lo that the batch's span occupies, turned
// into bucket offsets for the digits whose pass moves a record. Its passes
// alternate between the decoded records and an encoded scratch buffer.
type radix struct {
	lo     uint32
	digits int
	counts [4][256]int
}

// init readies r for keys up to span.
func (r *radix) init(lo, span uint32) {
	r.lo, r.digits = lo, 0
	for ; r.digits < 4 && span>>(8*r.digits) != 0; r.digits++ {
	}
}

// count adds key k to every digit's histogram.
func (r *radix) count(k uint32) {
	r.counts[0][byte(k)]++
	for d := 1; d < r.digits; d++ {
		r.counts[d][byte(k>>(8*d))]++
	}
}

// plan turns the histograms of n keys, k0 among them, into bucket offsets
// and returns the m digits whose pass moves a record, lowest first: a digit
// on which every key has k0's byte would move nothing.
func (r *radix) plan(n int, k0 uint32) (moves [4]int, m int) {
	for d := 0; d < r.digits; d++ {
		c := &r.counts[d]
		if c[byte(k0>>(8*d))] == n {
			continue
		}
		pos := 0
		for b := range c {
			c[b], pos = pos, pos+c[b]
		}
		moves[m] = d
		m++
	}
	return moves, m
}

// passes scatters the records in recs by each digit of moves in turn, encoding
// them into enc and decoding them back, so they end sorted in recs.
func (r *radix) passes(moves []int, recs []vc.Msg, enc []byte) {
	for i, d := range moves {
		shift, c := uint(8*d), &r.counts[d]
		if i%2 == 0 {
			scatterEncode(c, shift, r.lo, enc, recs)
		} else {
			scatterDecode(c, shift, r.lo, recs, enc)
		}
	}
	if len(moves)%2 == 1 {
		decode(recs, enc)
	}
}

// scatterEncode encodes each record of src into its bucket's next slot of dst.
func scatterEncode(c *[256]int, shift uint, lo uint32, dst []byte, src []vc.Msg) {
	for _, m := range src {
		b := byte((m.Dst - lo) >> shift)
		o := c[b] * RecordBytes
		c[b]++
		PutRecord(dst[o:o+RecordBytes:o+RecordBytes], m)
	}
}

// scatterDecode decodes each record of src into its bucket's next slot of dst.
func scatterDecode(c *[256]int, shift uint, lo uint32, dst []vc.Msg, src []byte) {
	for ; len(src) >= RecordBytes; src = src[RecordBytes:] {
		m := GetRecord(src)
		b := byte((m.Dst - lo) >> shift)
		dst[c[b]] = m
		c[b]++
	}
}

// decode decodes the records of enc into recs, in order, and returns how
// many it decoded.
func decode(recs []vc.Msg, enc []byte) int {
	n := min(len(recs), len(enc)/RecordBytes)
	for i := range recs[:n] {
		recs[i] = GetRecord(enc[i*RecordBytes:])
	}
	return n
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
