package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 {
		t.Fatalf("N = %d, want 4", s.N)
	}
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("min/max = %v/%v, want 1/4", s.Min, s.Max)
	}
	if !almostEqual(s.Mean, 2.5, 1e-12) {
		t.Errorf("mean = %v, want 2.5", s.Mean)
	}
	// population std of {1,2,3,4} is sqrt(1.25)
	if !almostEqual(s.Std, math.Sqrt(1.25), 1e-12) {
		t.Errorf("std = %v, want %v", s.Std, math.Sqrt(1.25))
	}
	if s.Sum != 10 {
		t.Errorf("sum = %v, want 10", s.Sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Percentile(50) != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40, 50})
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50},
		{-5, 10}, {110, 50},
		{10, 14}, // rank 0.4 -> 10 + 0.4*10
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	s := Summarize([]float64{7})
	for _, p := range []float64{0, 25, 50, 99, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Errorf("P%v = %v, want 7", p, got)
		}
	}
}

// Property: for any sample, percentiles are monotone in p and bounded by
// min and max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := s.Percentile(p)
			if v < prev-1e-9 || v < s.Min-1e-9 || v > s.Max+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max] and std is non-negative.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitize maps arbitrary quick-generated floats into finite,
// moderately sized values so numeric comparisons stay meaningful.
func sanitize(raw []float64) []float64 {
	var xs []float64
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		xs = append(xs, math.Mod(x, 1e9))
	}
	return xs
}

func TestMeanStdHelpers(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("empty helpers should return 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := Std([]float64{2, 4}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Std = %v, want 1", got)
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 4, 9})
	want := []float64{3, 5}
	if len(got) != len(want) {
		t.Fatalf("Diff len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Diff = %v, want %v", got, want)
		}
	}
	if Diff([]float64{1}) != nil {
		t.Error("Diff of single element should be nil")
	}
}

// Property: Diff inverts a running sum.
func TestCumSumDiffInverseProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 2 {
			return true
		}
		cs := make([]float64, len(xs))
		run := 0.0
		for i, x := range xs {
			run += x
			cs[i] = run
		}
		d := Diff(cs)
		for i := range d {
			// relative tolerance: cancellation across large magnitudes
			tol := 1e-6 * (math.Abs(cs[i]) + math.Abs(cs[i+1]) + 1)
			if math.Abs(d[i]-xs[i+1]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

// TestExtremesAndSortedPartsMatchSummarize: the pieces the sparse
// featurizer composes — the sort-free extremes scan, and the summary of
// an already-sorted sample with the sums switched off — must report
// what Summarize reports, on samples carrying NaN, ±Inf and signed
// zeros (a NaN matches a NaN; equal zeros compare with ==).
func TestExtremesAndSortedPartsMatchSummarize(t *testing.T) {
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	odd := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	r := NewRand(5)
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+r.Intn(12))
		for i := range xs {
			if r.Intn(3) == 0 {
				xs[i] = odd[r.Intn(len(odd))]
			} else {
				xs[i] = float64(r.Intn(7)) - 3
			}
		}
		want := Summarize(xs)
		if lo, hi := Extremes(xs); !same(lo, want.Min) || !same(hi, want.Max) {
			t.Fatalf("Extremes(%v) = %v, %v; Summarize has %v, %v", xs, lo, hi, want.Min, want.Max)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, tc := range []struct{ mean, std bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			got := SummarizeSorted(sorted, tc.mean, tc.std)
			if got.N != want.N || !same(got.Min, want.Min) || !same(got.Max, want.Max) || !same(got.Percentile(37), want.Percentile(37)) {
				t.Fatalf("SummarizeSorted(%v): order statistics differ from Summarize", xs)
			}
			if (tc.mean || tc.std) && (!same(got.Sum, want.Sum) || !same(got.Mean, want.Mean)) {
				t.Fatalf("SummarizeSorted(%v): mean %v, Summarize %v", xs, got.Mean, want.Mean)
			}
			if tc.std && !same(got.Std, want.Std) {
				t.Fatalf("SummarizeSorted(%v): std %v, Summarize %v", xs, got.Std, want.Std)
			}
		}
	}
	if s := SummarizeSorted(nil, true, true); s.N != 0 || s.Mean != 0 {
		t.Error("empty sorted sample should summarize to the zero Summary")
	}
}

func TestECDFBasic(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	if got := e.Quantile(0.5); got != 20 {
		t.Errorf("Q(0.5) = %v, want 20", got)
	}
	if got := e.Quantile(1); got != 40 {
		t.Errorf("Q(1) = %v, want 40", got)
	}
	if got := e.Quantile(0); got != 10 {
		t.Errorf("Q(0) = %v, want 10", got)
	}
}

// Property: the ECDF is a valid CDF — monotone, 0 at -inf side, 1 at max.
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			v := e.At(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return e.At(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and At are approximately inverse.
func TestECDFQuantileInverseProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		if q == 0 {
			q = 0.5
		}
		e := NewECDF(xs)
		v := e.Quantile(q)
		return e.At(v) >= q-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	pts := e.Points(3)
	if len(pts) != 3 {
		t.Fatalf("Points len = %d, want 3", len(pts))
	}
	if pts[0].X != 1 || pts[len(pts)-1].X != 5 {
		t.Errorf("points should span the sample: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Errorf("points not monotone: %+v", pts)
		}
	}
	if NewECDF(nil).Points(5) != nil {
		t.Error("empty ECDF should render no points")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should yield the same stream")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(1)
	c1 := r.Fork()
	c2 := r.Fork()
	if c1.Float64() == c2.Float64() && c1.Float64() == c2.Float64() {
		t.Error("forked streams should differ")
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	r := NewRand(7)
	const mean, cv = 100.0, 0.3
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.LogNormalMeanCV(mean, cv)
		if v <= 0 {
			t.Fatal("lognormal must be positive")
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean) > 2 {
		t.Errorf("empirical mean %v, want ~%v", got, mean)
	}
	if r.LogNormalMeanCV(0, 0.3) != 0 {
		t.Error("zero mean should return 0")
	}
	if r.LogNormalMeanCV(50, 0) != 50 {
		t.Error("zero cv should return the mean")
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.Pareto(30, 1.5); v < 30 {
			t.Fatalf("pareto below xmin: %v", v)
		}
	}
}

func TestTruncNormal(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		v := r.TruncNormal(5, 10, 0, 8)
		if v < 0 || v > 8 {
			t.Fatalf("trunc normal out of range: %v", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("p=0 must never fire")
		}
		if !r.Bernoulli(1) {
			t.Fatal("p=1 must always fire")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(13)
	z := NewZipf(r, 1.3, 100)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		rank := z.Next()
		if rank < 0 || rank >= 100 {
			t.Fatalf("rank out of range: %d", rank)
		}
		counts[rank]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("zipf should favor low ranks: c0=%d c50=%d", counts[0], counts[50])
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := NewRand(17)
	z := NewZipf(r, 0.5, 0) // invalid params are repaired
	for i := 0; i < 10; i++ {
		if z.Next() != 0 {
			t.Fatal("single-item zipf must return 0")
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRand(19)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.WeightedChoice([]float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	if counts[2] < counts[0]*2 {
		t.Errorf("weights not respected: %v", counts)
	}
	if r.WeightedChoice([]float64{0, 0}) != 0 {
		t.Error("all-zero weights should return 0")
	}
	if r.WeightedChoice([]float64{-1, 2}) != 1 {
		t.Error("negative weights should be skipped")
	}
}
