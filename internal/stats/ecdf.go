package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a
// sample. It answers both directions: F(x) (fraction of the sample ≤ x)
// and the quantile function F⁻¹(q).
type ECDF struct {
	xs []float64 // sorted sample
}

// NewECDF builds an ECDF from xs (copied; xs is not modified).
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{xs: s}
}

// Len reports the sample size.
func (e *ECDF) Len() int { return len(e.xs) }

// At returns F(x), the fraction of samples ≤ x. An empty ECDF returns 0.
func (e *ECDF) At(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with xs[i] >= x; we
	// want the count of samples <= x, so search for the first > x.
	n := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > x })
	return float64(n) / float64(len(e.xs))
}

// Quantile returns the smallest sample value v such that F(v) ≥ q,
// for q in (0, 1]. Quantile(0) returns the sample minimum.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	if q <= 0 {
		return e.xs[0]
	}
	if q >= 1 {
		return e.xs[len(e.xs)-1]
	}
	idx := int(q*float64(len(e.xs))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.xs) {
		idx = len(e.xs) - 1
	}
	return e.xs[idx]
}

// Points returns up to n (x, F(x)) pairs spanning the sample, suitable
// for plotting a CDF curve. Fewer points are returned for small samples.
func (e *ECDF) Points(n int) []Point {
	if len(e.xs) == 0 || n <= 0 {
		return nil
	}
	if n > len(e.xs) {
		n = len(e.xs)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(e.xs) - 1) / max(n-1, 1)
		pts = append(pts, Point{
			X: e.xs[idx],
			Y: float64(idx+1) / float64(len(e.xs)),
		})
	}
	return pts
}

// Point is a single (x, y) coordinate of a rendered curve.
type Point struct{ X, Y float64 }
