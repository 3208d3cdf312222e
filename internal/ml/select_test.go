package ml

import (
	"math"
	"testing"
	"testing/quick"

	"vqoe/internal/stats"
)

// informativeAndNoise builds a dataset where f0 fully determines the
// class, f1 is a noisy copy of f0, and f2/f3 are pure noise.
func informativeAndNoise(n int, seed int64) *Dataset {
	r := stats.NewRand(seed)
	ds := NewDataset([]string{"signal", "echo", "noise1", "noise2"}, []string{"lo", "hi"})
	for i := 0; i < n; i++ {
		x := r.Float64() * 10
		class := 0
		if x > 5 {
			class = 1
		}
		ds.Add([]float64{x, x + r.Normal(0, 0.5), r.Float64() * 7, r.Normal(0, 3)}, class)
	}
	return ds
}

func TestDiscretizeEqualFrequency(t *testing.T) {
	col := make([]float64, 100)
	for i := range col {
		col[i] = float64(i)
	}
	bins := discretize(col, 10)
	counts := make([]int, 10)
	for _, b := range bins {
		if b < 0 || b >= 10 {
			t.Fatalf("bin %d out of range", b)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c != 10 {
			t.Errorf("bin %d has %d values, want 10", b, c)
		}
	}
}

func TestDiscretizeConstantColumn(t *testing.T) {
	bins := discretize([]float64{5, 5, 5, 5}, 10)
	for _, b := range bins {
		if b != 0 {
			t.Errorf("constant column should land in bin 0, got %d", b)
		}
	}
}

// Property: discretize always returns bins in [0, bins).
func TestDiscretizeRangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var col []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				col = append(col, x)
			}
		}
		for _, b := range discretize(col, defaultBins) {
			if b < 0 || b >= defaultBins {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntropyKnownValues(t *testing.T) {
	// uniform over 2 symbols → 1 bit
	if h := entropyInts([]int{0, 1, 0, 1}, 2); math.Abs(h-1) > 1e-12 {
		t.Errorf("H = %v, want 1", h)
	}
	// constant → 0 bits
	if h := entropyInts([]int{1, 1, 1}, 2); h != 0 {
		t.Errorf("H = %v, want 0", h)
	}
	if h := entropyInts(nil, 2); h != 0 {
		t.Errorf("empty H = %v, want 0", h)
	}
}

func TestInfoGainRanksSignalFirst(t *testing.T) {
	ds := informativeAndNoise(2000, 1)
	ranked := RankByInfoGain(ds)
	if ranked[0].Name != "signal" {
		t.Errorf("top feature = %q, want signal", ranked[0].Name)
	}
	if ranked[0].Gain <= ranked[2].Gain {
		t.Errorf("signal gain %v should dominate noise gain %v",
			ranked[0].Gain, ranked[2].Gain)
	}
	// a perfectly informative feature on a balanced binary class has
	// close to 1 bit of gain
	if ranked[0].Gain < 0.8 {
		t.Errorf("signal gain %v unexpectedly low", ranked[0].Gain)
	}
}

func TestInfoGainNonNegative(t *testing.T) {
	ds := informativeAndNoise(500, 2)
	for i, g := range InfoGain(ds) {
		if g < 0 {
			t.Errorf("gain[%d] = %v negative", i, g)
		}
	}
}

func TestSymmetricUncertaintyBounds(t *testing.T) {
	a := []int{0, 1, 0, 1, 0, 1}
	if su := symmetricUncertainty(a, a, 2, 2); math.Abs(su-1) > 1e-12 {
		t.Errorf("SU(a,a) = %v, want 1", su)
	}
	b := []int{0, 0, 1, 1, 0, 1}
	su := symmetricUncertainty(a, b, 2, 2)
	if su < 0 || su > 1 {
		t.Errorf("SU out of [0,1]: %v", su)
	}
	if su := symmetricUncertainty([]int{0, 0}, []int{0, 0}, 2, 2); su != 0 {
		t.Errorf("SU of constants = %v, want 0", su)
	}
}

func TestCFSSelectsSignalDropsRedundantAndNoise(t *testing.T) {
	ds := informativeAndNoise(2000, 3)
	sel := CFSSelect(ds)
	if len(sel) == 0 {
		t.Fatal("CFS selected nothing")
	}
	found := false
	for _, n := range sel {
		if n == "signal" || n == "echo" {
			found = true
		}
		if n == "noise1" || n == "noise2" {
			t.Errorf("CFS kept noise feature %q (selected: %v)", n, sel)
		}
	}
	if !found {
		t.Errorf("CFS dropped the informative features: %v", sel)
	}
	// CFS penalizes inter-feature correlation, so it should not keep
	// both the signal and its redundant echo.
	if len(sel) > 2 {
		t.Errorf("CFS kept %d features, expected a compact subset: %v", len(sel), sel)
	}
}

func TestCFSEmptyDataset(t *testing.T) {
	ds := NewDataset(nil, []string{"a"})
	if sel := CFSSelect(ds); sel != nil {
		t.Errorf("empty schema should select nothing, got %v", sel)
	}
}

func TestCFSMeritFormula(t *testing.T) {
	c := &cfsMatrices{
		fc: []float64{0.8, 0.6},
		ff: [][]float64{{0, 0.2}, {0.2, 0}},
	}
	// single feature: merit = rcf
	if m := c.merit([]int{0}); math.Abs(m-0.8) > 1e-12 {
		t.Errorf("merit({0}) = %v, want 0.8", m)
	}
	// two features: 2*0.7 / sqrt(2 + 2*0.2)
	want := 2 * 0.7 / math.Sqrt(2+2*0.2)
	if m := c.merit([]int{0, 1}); math.Abs(m-want) > 1e-12 {
		t.Errorf("merit({0,1}) = %v, want %v", m, want)
	}
	if m := c.merit(nil); m != 0 {
		t.Errorf("merit(∅) = %v, want 0", m)
	}
}
