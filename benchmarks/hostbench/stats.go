package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the smallest value with at least p% of the
// samples at or below it. An empty sample yields NaN.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[nearestRank(len(asc), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples: ceil(p/100 · n), clamped to [1, n]. The small slack keeps
// binary rounding (99.9/100·10000 = 9990.000000000002) from pushing an
// exact product up a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(rank, n))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 50) }

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if !(x <= m) {
			m = x
		}
	}
	return m
}

// tailLadder is the fixed set of percentiles a timing may be reported
// at; a timing is printed at its median and at the highest rung that
// still has minBeyond samples above it.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

const minBeyond = 10

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// minSamples is the smallest sample the p-th percentile can be reported
// from: the first n with minBeyond samples beyond it.
func minSamples(p float64) int {
	n := minBeyond + 1
	for samplesBeyond(n, p) < minBeyond {
		n++
	}
	return n
}

// tailPercentile picks the highest percentile of the ladder that has
// at least minBeyond samples beyond it. ok is false when even the
// median does not (fewer than 20 samples): such a timing has no
// reportable tail and callers fall back to the maximum.
func tailPercentile(n int) (p float64, ok bool) {
	for _, rung := range tailLadder {
		if samplesBeyond(n, rung) < minBeyond {
			break
		}
		p, ok = rung, true
	}
	return p, ok
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}
