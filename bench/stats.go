package main

import (
	"math"
	"slices"
)

func sortedCopy(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// percentile is the nearest-rank percentile of xs (q in (0,1]): the
// smallest sample with at least q of the samples at or below it. 0 for an
// empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rank(len(xs), q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond samples
// beyond the nearest-rank q-th percentile.
func supported(n int, q float64) bool { return n-rank(n, q) >= minBeyond }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (exclusive method) does, which is what
// the driver's spread rule is written in. It needs two samples or more.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median; 0
// when there are too few samples to have one.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if med := median(xs); med != 0 {
		return (q3 - q1) / math.Abs(med)
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
