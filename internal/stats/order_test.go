package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameOrder reports the first position at which got differs from want
// in its bits; a position where both hold a zero compares with ==,
// because neither sort fixes the relative order of +0 and −0.
func sameOrder(got, want []float64) (int, bool) {
	for i := range want {
		if got[i] == 0 && want[i] == 0 {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return -1, true
}

// checkOrder sorts a copy of xs both ways through sc and compares.
func checkOrder(t *testing.T, sc *SortScratch, name string, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	want := append([]float64(nil), xs...)
	sc.Float64s(got)
	sort.Float64s(want)
	if i, ok := sameOrder(got, want); !ok {
		t.Fatalf("%s (n=%d): position %d holds %v (%#x), sort.Float64s has %v (%#x)",
			name, len(xs), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// orderInputs draws the series families the order pass must agree
// with sort.Float64s on, at length n.
func orderInputs(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	in := map[string][]float64{
		"uniform":  gen(func(int) float64 { return rng.Float64()*200 - 100 }),
		"ties":     gen(func(int) float64 { return float64(rng.Intn(4)) }),
		"constant": gen(func(int) float64 { return 42.5 }),
		"zeros":    gen(func(int) float64 { return math.Copysign(0, float64(rng.Intn(2)*2-1)) }),
		"huge range": gen(func(int) float64 {
			return (rng.Float64()*2 - 1) * math.MaxFloat64
		}),
		"outlier": gen(func(i int) float64 {
			if i == n/2 {
				return 1e300
			}
			return 1 + rng.Float64()*1e-9
		}),
		"geometric": gen(func(int) float64 { return math.Ldexp(1, -rng.Intn(1100)) }),
		"lognormal": gen(func(int) float64 { return math.Exp(rng.NormFloat64() * 8) }),
		"subnormal": gen(func(int) float64 {
			return float64(rng.Intn(64)-32) * math.SmallestNonzeroFloat64
		}),
		"specials":   gen(func(int) float64 { return specials[rng.Intn(len(specials))] }),
		"descending": gen(func(i int) float64 { return float64(n - i) }),
	}
	for _, name := range []string{"uniform", "ties", "outlier"} {
		for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			xs := append([]float64(nil), in[name]...)
			if n > 0 {
				xs[rng.Intn(n)] = s
			}
			in[name+" with "+formatSpecial(s)] = xs
		}
	}
	return in
}

func formatSpecial(s float64) string {
	switch {
	case s != s:
		return "NaN"
	case s > 0:
		return "+Inf"
	}
	return "-Inf"
}

// TestOrderMatchesSortFloat64s pins SortScratch.Float64s to the order
// sort.Float64s produces, bit for bit, over every length up to 300 and
// a spread of longer ones up to 4,096, on each series family: NaN,
// ±Inf, ±0, subnormals, heavy ties, constant series, a range wider
// than MaxFloat64, one outlier over a tight cluster, geometric spreads.
// One scratch serves every call, so reuse across lengths is covered.
func TestOrderMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc SortScratch
	var lengths []int
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for n := 301; n < 4096; n += 37 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 2047, 2048, 2049, 4096)
	for _, n := range lengths {
		for name, xs := range orderInputs(rng, n) {
			checkOrder(t, &sc, name, xs)
		}
	}
}

// FuzzOrderMatchesSort reads the input as little-endian float64s, any
// bit pattern, and holds SortScratch.Float64s to sort.Float64s.
func FuzzOrderMatchesSort(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(3, 1, 2))
	f.Add(seed(5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11))
	f.Add(seed(1e300, 0.5, 0.25, 0.125, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 0.01, 0.02, 0.03, 0.04, 0.05))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4))
	var sc SortScratch
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkOrder(t, &sc, "fuzz", xs)
	})
}

// TestOrderWorstCaseBounded feeds 2¹⁶ values built to defeat
// equal-width buckets — almost all of them land in one bucket, in
// random order — and checks, by count rather than by clock, that the
// insertion pass gives up within its budget and sort.Float64s finishes
// the job, while as many uniform values finish on the bucket path.
func TestOrderWorstCaseBounded(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(7))
	outlier := make([]float64, n)
	for i := range outlier {
		outlier[i] = rng.Float64()
	}
	outlier[rng.Intn(n)] = 1e300
	geometric := make([]float64, n)
	for i := range geometric {
		geometric[i] = math.Ldexp(1, -i)
	}
	rng.Shuffle(n, func(i, j int) { geometric[i], geometric[j] = geometric[j], geometric[i] })

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64()
	}

	var sc SortScratch
	checkOrder(t, &sc, "uniform", uniform)
	if sc.fellBack || sc.moves > orderMoveBudget*n {
		t.Errorf("uniform: fell back %v after %d moves; want the bucket path within budget", sc.fellBack, sc.moves)
	}
	for name, xs := range map[string][]float64{"outlier over [0,1)": outlier, "2^-k": geometric} {
		checkOrder(t, &sc, name, xs)
		if !sc.fellBack {
			t.Errorf("%s: the insertion pass finished on its own (%d moves); want the sort.Float64s fallback", name, sc.moves)
		}
		if budget := orderMoveBudget * n; sc.moves > budget {
			t.Errorf("%s: %d insertion moves, over the budget of %d", name, sc.moves, budget)
		}
	}
}

// TestOrderSteadyStateZeroAlloc: once a scratch has grown to the
// longest series, ordering allocates nothing — on the bucket path and
// on the sort.Float64s fallback alike.
func TestOrderSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 600)
	for i := range src {
		src[i] = rng.ExpFloat64()
	}
	nan := append([]float64(nil), src...)
	nan[17] = math.NaN()
	xs := make([]float64, len(src))
	var sc SortScratch
	for _, in := range [][]float64{src, nan} {
		copy(xs, in)
		sc.Float64s(xs) // grow
		if a := testing.AllocsPerRun(100, func() {
			copy(xs, in)
			sc.Float64s(xs)
		}); a != 0 {
			t.Fatalf("warm Float64s allocated %v objects per call", a)
		}
	}
}
