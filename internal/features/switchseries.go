package features

// StartupFilterSec is the initial slice of every session removed before
// switch detection: the fast-start phase has very different segment
// sizes and inter-arrival times than the steady state and would pollute
// the change-detection signal (§4.3). Ten seconds is under 5% of the
// ~180 s average session.
const StartupFilterSec = 10.0

// SwitchSeries computes the per-chunk product Δsize × Δt (KB·s) after
// dropping the first skipSec seconds of the session. This product is
// the series the CUSUM change detector runs on: a representation
// switch triggers a new fast-start ramp whose sizes and inter-arrivals
// both deviate from steady state, and multiplying the two deltas
// "combines but at the same time emphasizes" each effect (§4.3).
//
// Sessions shorter than skipSec or with fewer than three remaining
// chunks return nil.
func SwitchSeries(obs SessionObs, skipSec float64) []float64 {
	return SwitchSeriesInto(obs, skipSec, nil)
}

// SwitchSeriesInto is SwitchSeries appending into buf (reused across
// calls; grown only when capacity is exhausted): the products stream
// off consecutive surviving chunks, no kept-chunk slice in between.
// Sessions with fewer than three surviving chunks return buf truncated
// to length zero — the zero change score of no series, nil for a nil
// buf, a reused buffer's capacity preserved.
func SwitchSeriesInto(obs SessionObs, skipSec float64, buf []float64) []float64 {
	out := buf[:0]
	kept := 0
	var prevSize, prevTime float64
	for i := range obs.Chunks {
		c := &obs.Chunks[i]
		if c.Time < skipSec {
			continue
		}
		if kept > 0 {
			dsize := c.SizeKB - prevSize
			dt := c.Time - prevTime
			out = append(out, dsize*dt)
		}
		kept++
		prevSize, prevTime = c.SizeKB, c.Time
	}
	if kept < 3 {
		return buf[:0]
	}
	return out
}
