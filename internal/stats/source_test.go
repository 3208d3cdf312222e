package stats

import (
	"math"
	"math/rand"
	"testing"
)

// drawMix drives got (a NewRand stream) and want (rand.New over
// rand.NewSource) through the same n calls, picking each call's method
// from mix, and reports the first call whose results differ. Every
// method a caller of Rand can reach is in the rotation, so the check
// covers both the consumption pattern of each variate (NormFloat64 and
// ExpFloat64 reject and redraw, Intn draws 31 or 63 bits) and the
// values.
func drawMix(t *testing.T, seed int64, got *Rand, want *rand.Rand, n int, mix []byte) {
	t.Helper()
	zGot, zWant := NewZipf(got, 1.3, 500), rand.NewZipf(want, 1.3, 1, 499)
	for i := 0; i < n; i++ {
		var op byte
		if len(mix) > 0 {
			op = mix[i%len(mix)]
		}
		var a, b any
		switch op % 10 {
		case 0:
			a, b = got.Uint64(), want.Uint64()
		case 1:
			a, b = got.Int63(), want.Int63()
		case 2:
			a, b = got.Intn(1000), want.Intn(1000)
		case 3:
			a, b = got.Intn(1<<40+7), want.Intn(1<<40+7)
		case 4:
			a, b = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 5:
			a, b = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 6:
			a, b = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 7:
			pg, pw := got.Perm(9), want.Perm(9)
			a, b = asArray(pg), asArray(pw)
		case 8:
			sg, sw := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
			got.Shuffle(len(sg), func(i, j int) { sg[i], sg[j] = sg[j], sg[i] })
			want.Shuffle(len(sw), func(i, j int) { sw[i], sw[j] = sw[j], sw[i] })
			a, b = asArray(sg), asArray(sw)
		case 9:
			a, b = zGot.Next(), int(zWant.Uint64())
		}
		if a != b {
			t.Fatalf("seed %d, call %d (op %d): got %v, math/rand has %v", seed, i, op%10, a, b)
		}
	}
}

// asArray makes a short int slice comparable with ==.
func asArray(xs []int) [9]int {
	var out [9]int
	copy(out[:], xs)
	return out
}

// checkSource compares a NewRand stream with math/rand's for seed over
// n mixed calls, then re-seeds both through Rand.Seed with reseed and
// compares again: the reset must take the source back to draw one.
func checkSource(t *testing.T, seed, reseed int64, n int, mix []byte) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	drawMix(t, seed, got, want, n, mix)
	got.Seed(reseed)
	want.Seed(reseed)
	drawMix(t, reseed, got, want, n, mix)
}

func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	edge := []int64{0, 1, -1, m, -m, m + 5, m - 1, 2 * m, 89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	// 700 plain draws cross the handover at draw 274 and the register's
	// wrap at draw 607; the mixed run draws well past both, since
	// NormFloat64, Perm and Zipf take several draws a call.
	plain := []byte{0}
	mixed := []byte{5, 0, 2, 9, 4, 7, 1, 6, 3, 8, 5, 5, 4}
	for _, s := range edge {
		checkSource(t, s, s+1, 700, plain)
		checkSource(t, s, -s, 400, mixed)
	}
	r := rand.New(rand.NewSource(20161114))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		s := r.Int63() - r.Int63()
		checkSource(t, s, r.Int63(), 300, mixed)
	}
}

// TestSourceShortStreamsNeverBuildTheRegister pins the cost the lazy
// seeding exists for: up to 273 draws a NewRand allocates nothing
// beyond itself, and the 274th builds the register once.
func TestSourceShortStreamsNeverBuildTheRegister(t *testing.T) {
	var s source
	s.Seed(42)
	for i := 0; i < rngTap; i++ {
		s.Uint64()
	}
	if s.vec != nil {
		t.Fatalf("register built within the first %d draws", rngTap)
	}
	s.Uint64()
	if s.vec == nil {
		t.Fatalf("register not built at draw %d", rngTap+1)
	}
	s.Seed(42)
	if s.vec != nil || s.drawn != 0 {
		t.Fatal("Seed did not reset the source")
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(300), []byte{0})
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint16(700), []byte{5, 9, 7})
	f.Add(int64(1<<31-1), int64(-(1 << 31)), uint16(1300), []byte{3, 8, 6, 1})
	f.Fuzz(func(t *testing.T, seed, reseed int64, n uint16, mix []byte) {
		checkSource(t, seed, reseed, int(n%1500), mix)
	})
}
