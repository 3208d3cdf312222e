package stats

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator, seeded
// lazily. rand.NewSource(seed) fills a 607-word register from 1,841
// Park–Miller steps (x ← 48271·x mod 2³¹−1), each word masked by a fixed
// table, and draw k returns vec[334−k] + vec[607−k]: no draw before the
// 274th reads a word an earlier one wrote. So those draws compute their
// two words straight from the seed, and the register is built only if a
// 274th draw is asked for. The stream is rand.NewSource(seed)'s bit for
// bit.
type source struct {
	x0        uint64         // normalised seed, the Park–Miller start
	drawn     int            // draws served before vec was built
	vec       *[rngLen]int64 // the register, nil until draw rngTap+1
	tap, feed int
}

const (
	rngLen, rngTap = 607, 273
	pmA, pmM       = 48271, 1<<31 - 1
)

// jump[i] = 48271^(21+3i) mod 2³¹−1 takes the seed to the first of the
// three Park–Miller values word i is made of; cooked[i] is its mask.
var jump, cooked = seedTables()

// pmMul returns a·b mod 2³¹−1 for a, b < 2³¹−1.
func pmMul(a, b uint64) uint64 {
	r := a*b&pmM + a*b>>31
	if r >= pmM {
		r -= pmM
	}
	return r
}

// pmWord is a register word before its mask: j = jump[i], x0 the seed.
func pmWord(j, x0 uint64) int64 {
	x := pmMul(j, x0)
	y := pmMul(pmA, x)
	return int64(x)<<40 ^ int64(y)<<20 ^ int64(pmMul(pmA, y))
}

// seedTables derives the masks from the runtime's generator instead of
// copying its table: inverting e_k = I[feed] + I[tap] over the first 607
// draws e_k of rand.NewSource(1) gives its initial register I, and word
// i's mask is I[i] ^ pmWord(jump[i], 1).
func seedTables() (*[rngLen]uint64, *[rngLen]int64) {
	jump, cooked := new([rngLen]uint64), new([rngLen]int64)
	jump[0] = 1
	for i := 0; i < 21; i++ {
		jump[0] = pmA * jump[0] % pmM
	}
	for i := 1; i < rngLen; i++ {
		jump[i] = pmA * pmA % pmM * pmA % pmM * jump[i-1] % pmM
	}
	src := rand.NewSource(1).(rand.Source64)
	var e [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		e[k] = int64(src.Uint64())
	}
	for k := rngTap + 1; k <= rngLen; k++ {
		cooked[(2*rngLen-rngTap-k)%rngLen] = e[k] - e[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		cooked[rngLen-rngTap-k] = e[k] - cooked[rngLen-k]
	}
	for i := range cooked {
		cooked[i] ^= pmWord(jump[i], 1)
	}
	return jump, cooked
}

// Seed resets the source to draw 1 of rand.NewSource(seed), normalising
// seed as it does.
func (s *source) Seed(seed int64) {
	if seed %= pmM; seed < 0 {
		seed += pmM
	} else if seed == 0 {
		seed = 89482311
	}
	*s = source{x0: uint64(seed)}
}

func (s *source) word(i int) int64 { return pmWord(jump[i], s.x0) ^ cooked[i] }

// Uint64 returns the next draw.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
		}
		// the register as the first rngTap draws left it
		s.vec = new([rngLen]int64)
		for i := range s.vec {
			s.vec[i] = s.word(i)
		}
		for k := 1; k <= rngTap; k++ {
			s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
		}
		s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw's low 63 bits.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
