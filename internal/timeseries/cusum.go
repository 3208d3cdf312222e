// Package timeseries implements the time-series analysis used by the
// representation-switch detector: Page's Cumulative Sum Control Chart
// (CUSUM) and the standard-deviation change score the paper applies to
// its output (§4.3).
package timeseries

import (
	"vqoe/internal/stats"
)

// CUSUM is a two-sided cumulative sum control chart after E.S. Page
// ("Continuous inspection schemes", Biometrika 1954). Observations are
// compared against a target mean; positive and negative excursions are
// accumulated separately with a slack parameter k that absorbs benign
// drift.
//
// The zero value is not ready for use; construct with NewCUSUM.
type CUSUM struct {
	target float64 // reference mean the chart tracks
	k      float64 // allowance (slack): drift below k is ignored
	hi, lo float64 // running one-sided sums
}

// NewCUSUM returns a chart tracking the given target mean with
// allowance k (k ≥ 0). A common choice is k = σ/2 of the in-control
// process; k = 0 accumulates every deviation.
func NewCUSUM(target, k float64) *CUSUM {
	if k < 0 {
		k = 0
	}
	return &CUSUM{target: target, k: k}
}

// Update feeds one observation and returns the current chart magnitude:
// max(S⁺, S⁻). The magnitude grows while the series mean has shifted
// away from the target and resets toward zero when it returns.
func (c *CUSUM) Update(x float64) float64 {
	d := x - c.target
	c.hi += d - c.k
	if c.hi < 0 {
		c.hi = 0
	}
	c.lo += -d - c.k
	if c.lo < 0 {
		c.lo = 0
	}
	if c.hi > c.lo {
		return c.hi
	}
	return c.lo
}

// Reset clears the accumulated sums.
func (c *CUSUM) Reset() { c.hi, c.lo = 0, 0 }

// Chart runs a two-sided CUSUM over the whole series and returns the
// per-point chart magnitudes. The target is the series mean and the
// allowance is half its standard deviation — the self-referencing
// configuration used by the switch detector, which needs no tuning per
// session.
func Chart(series []float64) []float64 {
	return ChartInto(series, nil)
}

// ChartInto is Chart writing into out, which is grown only when its
// capacity is exhausted — the allocation-free form the engine's
// per-shard scratch threads through repeated switch scoring. Values are
// bit-identical to Chart's. An empty series returns nil without
// touching out.
func ChartInto(series, out []float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	mean := stats.Mean(series)
	std := stats.Std(series)
	c := NewCUSUM(mean, std/2)
	if cap(out) < len(series) {
		out = make([]float64, len(series))
	} else {
		out = out[:len(series)]
	}
	for i, x := range series {
		out[i] = c.Update(x)
	}
	return out
}

// ChangeScore is the paper's session-level indicator of representation
// variance: STD(CUSUM(series)) — the standard deviation of the CUSUM
// chart output (§4.3, eq. 3). Sessions whose chunk-level Δsize×Δt
// series contains representation switches produce large excursions in
// the chart and therefore a high score; steady sessions score near 0.
func ChangeScore(series []float64) float64 {
	chart := Chart(series)
	if len(chart) == 0 {
		return 0
	}
	return stats.Std(chart)
}

// ChangePoints returns the indices at which the chart magnitude crosses
// the given threshold — an estimate of where the shifts happened. The
// chart's target is estimated from a short warm-up window after each
// detection (rather than the global mean, which would flag the start of
// any drifting series), so multiple switches in one session are each
// reported once.
func ChangePoints(series []float64, threshold float64) []int {
	if len(series) == 0 || threshold <= 0 {
		return nil
	}
	k := stats.Std(series) / 2
	var pts []int
	start := 0
	for start < len(series) {
		w := start + 5
		if w > len(series) {
			w = len(series)
		}
		c := NewCUSUM(stats.Mean(series[start:w]), k)
		detected := false
		for i := start; i < len(series); i++ {
			if c.Update(series[i]) > threshold {
				pts = append(pts, i)
				start = i + 1
				detected = true
				break
			}
		}
		if !detected {
			break
		}
	}
	return pts
}
