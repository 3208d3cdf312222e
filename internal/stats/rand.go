package stats

import (
	"math"
	"math/rand"
)

// Rand wraps math/rand with the distribution variates the simulators
// need. All vqoe randomness flows through explicitly seeded Rand values.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic source seeded with seed. Its stream
// is math/rand's for that seed, rand.New(rand.NewSource(seed)), bit for
// bit, but seeding is O(1): the generator's 607-word register is built
// only if a 274th draw is asked for (see source).
func NewRand(seed int64) *Rand {
	s := new(source)
	s.Seed(seed)
	return &Rand{Rand: rand.New(s)}
}

// Fork derives an independent child source from this one. Subsystems
// fork the workload generator's source so that adding draws to one
// subsystem does not perturb the streams of the others.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Int63())
}

// LogNormal draws a log-normal variate with the given location mu and
// scale sigma of the underlying normal.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// LogNormalMeanCV draws a log-normal variate parameterized by its own
// mean and coefficient of variation (std/mean), which is more natural
// for "segment sizes vary ±30% around the nominal bitrate" style inputs.
func (r *Rand) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return r.LogNormal(mu, math.Sqrt(sigma2))
}

// Exp draws an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Pareto draws a bounded Pareto variate with shape alpha and minimum
// xmin, used for heavy-tailed video durations.
func (r *Rand) Pareto(xmin, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xmin / math.Pow(u, 1/alpha)
}

// Normal draws a normal variate with the given mean and std.
func (r *Rand) Normal(mean, std float64) float64 {
	return r.NormFloat64()*std + mean
}

// TruncNormal draws a normal variate truncated (by resampling, with a
// clamp fallback) to [lo, hi].
func (r *Rand) TruncNormal(mean, std, lo, hi float64) float64 {
	for i := 0; i < 16; i++ {
		x := r.Normal(mean, std)
		if x >= lo && x <= hi {
			return x
		}
	}
	return Clamp(mean, lo, hi)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Zipf draws ranks in [0, n) with Zipf(s) popularity, rank 0 most
// popular. Used to pick videos from a catalog.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over n items with exponent s (> 1).
func NewZipf(r *Rand, s float64, n int) *Zipf {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = 1.01
	}
	return &Zipf{z: rand.NewZipf(r.Rand, s, 1, uint64(n-1))}
}

// Next returns the next rank.
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Zero or negative weights are
// treated as 0; if all weights are ≤ 0 the first index is returned.
func (r *Rand) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
