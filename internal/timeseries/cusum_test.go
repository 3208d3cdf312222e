package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"vqoe/internal/stats"
)

func TestCUSUMStableSeriesStaysLow(t *testing.T) {
	c := NewCUSUM(10, 1)
	for i := 0; i < 100; i++ {
		// alternate around the target within the allowance
		x := 10.0
		if i%2 == 0 {
			x = 10.5
		} else {
			x = 9.5
		}
		if v := c.Update(x); v > 1 {
			t.Fatalf("stable series produced magnitude %v", v)
		}
	}
}

func TestCUSUMDetectsUpShift(t *testing.T) {
	c := NewCUSUM(0, 0.5)
	var last float64
	for i := 0; i < 20; i++ {
		last = c.Update(5) // sustained shift of +5
	}
	// each step adds 5 - 0.5 = 4.5
	if !almost(last, 90, 1e-9) {
		t.Errorf("magnitude after shift = %v, want 90", last)
	}
	if c.hi != last || c.lo != 0 {
		t.Errorf("one-sided sums wrong: hi=%v lo=%v", c.hi, c.lo)
	}
}

func TestCUSUMDetectsDownShift(t *testing.T) {
	c := NewCUSUM(0, 0.5)
	var last float64
	for i := 0; i < 10; i++ {
		last = c.Update(-3)
	}
	if !almost(last, 25, 1e-9) {
		t.Errorf("magnitude = %v, want 25", last)
	}
	if c.lo != last {
		t.Error("down shift should accumulate in the low sum")
	}
}

func TestCUSUMReset(t *testing.T) {
	c := NewCUSUM(0, 0)
	c.Update(10)
	c.Reset()
	if c.hi != 0 || c.lo != 0 {
		t.Error("reset did not clear sums")
	}
}

func TestCUSUMNegativeAllowanceRepaired(t *testing.T) {
	c := NewCUSUM(0, -3)
	if v := c.Update(1); v != 1 {
		t.Errorf("allowance should clamp to 0; got %v", v)
	}
}

func TestChartEmpty(t *testing.T) {
	if Chart(nil) != nil {
		t.Error("empty chart should be nil")
	}
	if ChangeScore(nil) != 0 {
		t.Error("empty score should be 0")
	}
}

func TestChangeScoreSeparatesShiftedSeries(t *testing.T) {
	r := stats.NewRand(1)
	steady := make([]float64, 200)
	shifted := make([]float64, 200)
	for i := range steady {
		steady[i] = 100 + r.Normal(0, 5)
		if i < 100 {
			shifted[i] = 100 + r.Normal(0, 5)
		} else {
			shifted[i] = 300 + r.Normal(0, 5) // level shift halfway
		}
	}
	s1 := ChangeScore(steady)
	s2 := ChangeScore(shifted)
	if s2 < s1*3 {
		t.Errorf("shifted score %v should dominate steady score %v", s2, s1)
	}
}

// Property: chart magnitudes are non-negative for any input.
func TestChartNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := finite(raw)
		for _, v := range Chart(xs) {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a constant series has zero chart everywhere, hence zero score.
func TestConstantSeriesZeroScoreProperty(t *testing.T) {
	f := func(v float64, n uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		v = math.Mod(v, 1e9)
		xs := make([]float64, int(n%50)+2)
		for i := range xs {
			xs[i] = v
		}
		return ChangeScore(xs) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaling the series scales the change score proportionally
// (the score is homogeneous of degree 1), which is why unit choice for
// the Δsize×Δt product matters for the paper's fixed threshold of 500.
func TestChangeScoreHomogeneityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := finite(raw)
		if len(xs) < 3 {
			return true
		}
		// clamp magnitudes so 7x scaling cannot overflow
		for i := range xs {
			xs[i] = math.Mod(xs[i], 1e6)
		}
		base := ChangeScore(xs)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7
		}
		got := ChangeScore(scaled)
		tol := 1e-6 * (base*7 + 1)
		return math.Abs(got-7*base) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChangePoints(t *testing.T) {
	xs := make([]float64, 60)
	for i := range xs {
		if i >= 30 {
			xs[i] = 50
		}
	}
	pts := ChangePoints(xs, 40)
	if len(pts) == 0 {
		t.Fatal("expected at least one change point")
	}
	if pts[0] < 30 || pts[0] > 36 {
		t.Errorf("first change point at %d, want near 30", pts[0])
	}
	if ChangePoints(xs, 0) != nil {
		t.Error("non-positive threshold should detect nothing")
	}
	if ChangePoints(nil, 10) != nil {
		t.Error("empty series should detect nothing")
	}
}

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func finite(raw []float64) []float64 {
	var xs []float64
	for _, x := range raw {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			xs = append(xs, math.Mod(x, 1e9))
		}
	}
	return xs
}

// TestChartIntoReuseMatchesChart runs a reused output buffer through a
// sequence of series of varying lengths — including empty ones — and
// checks each chart is bit-identical to the allocating Chart, with the
// buffer's capacity surviving the empty series in between.
func TestChartIntoReuseMatchesChart(t *testing.T) {
	seqs := [][]float64{
		{100, 200, 150, 400, 80},
		nil,
		{5},
		{3000, 2900, 3100, 2800, 3050, 2950, 500, 450, 520},
		{},
		{1, 2},
	}
	var buf []float64
	for si, series := range seqs {
		got := ChartInto(series, buf)
		if got != nil {
			buf = got
		}
		want := Chart(series)
		if len(got) != len(want) {
			t.Fatalf("series %d: into produced %d values, Chart %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("series %d value %d: %v != %v", si, i, got[i], want[i])
			}
		}
	}
}
