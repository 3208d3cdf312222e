package features

import (
	"vqoe/internal/stats"
	"vqoe/internal/timeseries"
)

// The dense builder: how PRs 1–18 computed every training vector, every
// /analyze answer and every table — one allocating series per metric,
// stats.Summarize over it, every statistic read off the summary. PR 19
// took it out of the product (StallFeatures and RepFeatures evaluate the
// full-width Sparse now) and left it here, loops and float order as
// they were, as the oracle the evaluator is held to. Only the type's
// name changed: product code's metric no longer carries a series
// function.

// A denseMetric is one named per-chunk series with its allocating
// extraction.
type denseMetric struct {
	id     metricID
	name   string
	series func(SessionObs) []float64
}

// denseBaseMetrics are the nine Table-1 network features both sets
// share, one series per chunk.
var denseBaseMetrics = []denseMetric{
	fieldMetric(mRTTMin, "RTT minimum", func(c ChunkObs) float64 { return c.RTTMin }),
	fieldMetric(mRTTAvg, "RTT average", func(c ChunkObs) float64 { return c.RTTAvg }),
	fieldMetric(mRTTMax, "RTT maximum", func(c ChunkObs) float64 { return c.RTTMax }),
	fieldMetric(mBDP, "BDP", func(c ChunkObs) float64 { return c.BDP }),
	fieldMetric(mBIFAvg, "BIF avg", func(c ChunkObs) float64 { return c.BIFAvg }),
	fieldMetric(mBIFMax, "BIF maximum", func(c ChunkObs) float64 { return c.BIFMax }),
	fieldMetric(mLoss, "packet loss", func(c ChunkObs) float64 { return c.LossPct }),
	fieldMetric(mRetrans, "packet retransmissions", func(c ChunkObs) float64 { return c.RetransPct }),
	fieldMetric(mSize, "chunk size", func(c ChunkObs) float64 { return c.SizeKB }),
}

func fieldMetric(id metricID, name string, f func(ChunkObs) float64) denseMetric {
	return denseMetric{id, name, func(s SessionObs) []float64 { return s.field(f) }}
}

// denseChunkTimeMetric completes the stall set's ten metrics.
var denseChunkTimeMetric = fieldMetric(mTime, "chunk time", func(c ChunkObs) float64 { return c.Time })

// denseConstructedMetrics are the five engineered series of §4.2: the
// running chunk average size, the chunk size delta, the inter-arrival
// delta, the per-chunk throughput, and its CUSUM chart.
var denseConstructedMetrics = []denseMetric{
	{mAvgSize, "chunk avg size", func(s SessionObs) []float64 { return runningMean(s.sizes()) }},
	{mDeltaSize, "chunk Δsize", func(s SessionObs) []float64 { return stats.Diff(s.sizes()) }},
	{mDeltaTime, "chunk Δt", func(s SessionObs) []float64 { return stats.Diff(s.times()) }},
	{mThroughput, "throughput", func(s SessionObs) []float64 { return s.throughputs() }},
	{mCusumThroughput, "cusum throughput", func(s SessionObs) []float64 { return timeseries.Chart(s.throughputs()) }},
}

func denseStallMetrics() []denseMetric {
	ms := append([]denseMetric(nil), denseBaseMetrics...)
	return append(ms, denseChunkTimeMetric)
}

func denseRepMetrics() []denseMetric {
	ms := append([]denseMetric(nil), denseBaseMetrics...)
	return append(ms, denseConstructedMetrics...)
}

func buildVector(obs SessionObs, ms []denseMetric, ss []stat) []float64 {
	out := make([]float64, 0, len(ms)*len(ss))
	for _, m := range ms {
		sum := stats.Summarize(m.series(obs))
		for _, st := range ss {
			if sum.N == 0 {
				out = append(out, 0)
				continue
			}
			out = append(out, st.of(sum))
		}
	}
	return out
}

// denseStallFeatures is the parent's StallFeatures.
func denseStallFeatures(obs SessionObs) []float64 {
	return buildVector(obs, denseStallMetrics(), stallStats)
}

// denseRepFeatures is the parent's RepFeatures.
func denseRepFeatures(obs SessionObs) []float64 {
	return buildVector(obs, denseRepMetrics(), repStats)
}

// series extracts one named per-chunk series.
func (s SessionObs) sizes() []float64 {
	out := make([]float64, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = c.SizeKB
	}
	return out
}

func (s SessionObs) times() []float64 {
	out := make([]float64, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = c.Time
	}
	return out
}

func (s SessionObs) throughputs() []float64 {
	out := make([]float64, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = c.ThroughputKBps()
	}
	return out
}

func (s SessionObs) field(f func(ChunkObs) float64) []float64 {
	out := make([]float64, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = f(c)
	}
	return out
}

// runningMean returns the cumulative average of xs: out[i] is the mean
// of xs[0..i] — the "chunk average size" constructed feature evolves
// along the session.
func runningMean(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		out[i] = sum / float64(i+1)
	}
	return out
}

// denseSwitchSeries is the parent's SwitchSeries: the allocating loop
// SwitchSeriesInto is compared with, now that SwitchSeries itself is
// SwitchSeriesInto over a nil buffer.
func denseSwitchSeries(obs SessionObs, skipSec float64) []float64 {
	var kept []ChunkObs
	for _, c := range obs.Chunks {
		if c.Time >= skipSec {
			kept = append(kept, c)
		}
	}
	if len(kept) < 3 {
		return nil
	}
	out := make([]float64, 0, len(kept)-1)
	for i := 1; i < len(kept); i++ {
		dsize := kept[i].SizeKB - kept[i-1].SizeKB
		dt := kept[i].Time - kept[i-1].Time
		out = append(out, dsize*dt)
	}
	return out
}
