// Package stats provides the descriptive statistics, empirical
// distributions and random variates used throughout vqoe.
//
// Everything in this package is deterministic given its inputs; random
// variates are drawn from explicitly seeded sources so that datasets,
// tables and figures are reproducible run to run.
package stats

import (
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample. It is the unit
// from which session feature vectors are assembled (a "chunk size min",
// "RTT mean" and so on are fields of a Summary).
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Std    float64 // population standard deviation
	Sum    float64
	sorted []float64
}

// Summarize computes a Summary of xs. It copies and sorts the sample so
// that subsequent Percentile calls are O(1); xs itself is not modified.
// Summarizing an empty sample yields a zero Summary with N == 0.
func Summarize(xs []float64) Summary {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return SummarizeSorted(sorted, true, true)
}

// SummarizeSorted is Summarize for a sample the caller owns and has
// already put in sort.Float64s order (ascending, NaNs first): sorted
// becomes the Summary's backing, no copy. N, Min, Max and Percentile
// are always available; Sum and Mean are computed only when mean or
// std is set, Std only when std is set. The sums run in ascending
// order, so every computed field is bit-identical to Summarize's.
func SummarizeSorted(sorted []float64, mean, std bool) Summary {
	var s Summary
	s.N = len(sorted)
	if s.N == 0 {
		return s
	}
	s.sorted = sorted
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	if !mean && !std {
		return s
	}
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	if !std {
		return s
	}
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

// Extremes returns the Min and Max Summarize would report for xs,
// from one scan instead of a sort. sort.Float64s orders NaNs first, so
// the minimum is NaN as soon as one sample is and the maximum is the
// largest non-NaN sample (NaN only when every sample is); a scan that
// compared naively would let a NaN's position decide. It panics on an
// empty slice.
func Extremes(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo || x != x {
			lo = x
		}
		if x > hi || hi != hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (p in [0,100]) of the summarized
// sample using linear interpolation between closest ranks. It returns 0
// for an empty Summary.
func (s Summary) Percentile(p float64) float64 {
	if s.N == 0 {
		return 0
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[s.N-1]
	}
	rank := p / 100 * float64(s.N-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := rank - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs, or 0 if the
// sample has fewer than one element.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the minimum of xs. It panics on an empty slice; callers
// summarizing possibly-empty samples should use Summarize instead.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Diff returns consecutive differences: out[i] = xs[i+1] - xs[i].
// The result has length len(xs)-1 (nil for fewer than two samples).
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
