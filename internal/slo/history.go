// Package slo turns the service's instantaneous vqoe_* readings into
// windowed SLO verdicts and alert state. It is the layer Bronzino et
// al.'s deployment-experience paper says dominates operating QoE
// inference at scale: not computing the estimate, but noticing when
// the pipeline or the model has gone bad.
//
// Three pieces, all zero-dependency:
//
//   - History: a fixed-cadence sampler that reads selected counters
//     and gauges straight from the in-process atomics (never by
//     scraping the exposition) into per-series fixed-capacity ring
//     buffers, with windowed rate/avg/quantile helpers.
//   - Rules: declarative health conditions over those windows,
//     including SRE-workbook multi-window burn-rate pairs.
//   - Manager: a Prometheus-style alert state machine with
//     for-duration hysteresis and a JSONL transition log.
package slo

import (
	"math"
	"sort"
	"sync"

	"vqoe/internal/obs"
)

// Kind distinguishes how a series is interpreted by the window
// helpers: counters are rate()d, gauges are averaged.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Series is one scalar ring buffer inside a History. The read closure
// is invoked once per sampler tick, after the History's prelude hooks
// have refreshed whatever shared snapshot it reads from.
type Series struct {
	name string
	kind Kind
	read func() float64
	vals []float64 // ring aligned with History.times; NaN = no sample
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// HistSeries is a ring of histogram snapshots (cumulative since
// process start); windowed quantiles come from the delta between the
// newest sample and the sample at the window's left edge.
type HistSeries struct {
	name  string
	read  func() obs.HistogramSnapshot
	snaps []obs.HistogramSnapshot
	have  []bool // aligned: false = registered after this slot was written
}

// Name returns the series name.
func (h *HistSeries) Name() string { return h.name }

// History is the metric history ring: a shared timestamp ring plus any
// number of value rings aligned to it. All series share one write
// cursor, so sample i of every series was taken at times slot i.
//
// Sampling happens at most once per cadence tick (1 Hz by default), so
// a single RWMutex is plenty; readers (the /debug/timeseries handler
// and rule evaluation) take the read lock.
type History struct {
	mu      sync.RWMutex
	cap     int
	times   []float64 // unix seconds
	head    int       // next write position
	count   int       // filled slots, <= cap
	series  []*Series
	hists   []*HistSeries
	prelude []func()
}

// NewHistory returns a History retaining up to capacity samples per
// series. Capacity must cover the slowest rule window at the sampler
// cadence (4096 one-second samples > the default 1h slow window).
func NewHistory(capacity int) *History {
	if capacity < 2 {
		capacity = 2
	}
	return &History{cap: capacity, times: make([]float64, capacity)}
}

// Prelude registers a hook run once at the start of every Sample, in
// registration order. Glue code uses it to take one snapshot of an
// expensive source (engine shard stats, qualitymon verdicts) that
// several series closures then read without re-snapshotting.
func (h *History) Prelude(fn func()) {
	h.mu.Lock()
	h.prelude = append(h.prelude, fn)
	h.mu.Unlock()
}

// AddCounter registers a monotonically non-decreasing series. Safe to
// call after sampling has started; slots written before registration
// read as missing (NaN).
func (h *History) AddCounter(name string, read func() float64) *Series {
	return h.add(name, KindCounter, read)
}

// AddGauge registers an instantaneous-value series.
func (h *History) AddGauge(name string, read func() float64) *Series {
	return h.add(name, KindGauge, read)
}

func (h *History) add(name string, kind Kind, read func() float64) *Series {
	s := &Series{name: name, kind: kind, read: read, vals: make([]float64, h.cap)}
	for i := range s.vals {
		s.vals[i] = math.NaN()
	}
	h.mu.Lock()
	h.series = append(h.series, s)
	h.mu.Unlock()
	return s
}

// AddHistogram registers a histogram series. The read closure must
// return a cumulative-since-start snapshot (e.g. the merged ingest
// StageSet across shards).
func (h *History) AddHistogram(name string, read func() obs.HistogramSnapshot) *HistSeries {
	hs := &HistSeries{
		name:  name,
		read:  read,
		snaps: make([]obs.HistogramSnapshot, h.cap),
		have:  make([]bool, h.cap),
	}
	h.mu.Lock()
	h.hists = append(h.hists, hs)
	h.mu.Unlock()
	return hs
}

// Sample takes one snapshot of every registered series at the given
// unix-seconds timestamp.
func (h *History) Sample(now float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, fn := range h.prelude {
		fn()
	}
	h.times[h.head] = now
	for _, s := range h.series {
		s.vals[h.head] = s.read()
	}
	for _, hs := range h.hists {
		hs.snaps[h.head] = hs.read()
		hs.have[h.head] = true
	}
	h.head = (h.head + 1) % h.cap
	if h.count < h.cap {
		h.count++
	}
}

// slot maps the i-th oldest retained sample (0 <= i < count) to its
// ring index. Callers hold at least the read lock.
func (h *History) slot(i int) int {
	return (h.head - h.count + i + 2*h.cap) % h.cap
}

// Len returns the number of retained samples.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.count
}

// windowStart returns the index (in oldest-first order) of the first
// sample with time >= now-window, or -1 if no samples. Callers hold
// the read lock.
func (h *History) windowStart(now, window float64) int {
	if h.count == 0 {
		return -1
	}
	cutoff := now - window
	// Linear scan from the newest backwards: windows are short
	// relative to capacity and samples are evenly spaced, so this is
	// cheap and robust to clock adjustments.
	start := h.count - 1
	for i := h.count - 1; i >= 0; i-- {
		if h.times[h.slot(i)] < cutoff {
			break
		}
		start = i
	}
	return start
}

// RateOver returns the per-second increase of a counter series over
// the trailing window: (newest - oldest-in-window) / elapsed. Returns
// NaN when fewer than two in-window samples exist. A counter that
// moved backwards (shouldn't happen in-process) also returns NaN.
func (h *History) RateOver(s *Series, now, window float64) float64 {
	d, dt := h.DeltaOver(s, now, window)
	if math.IsNaN(d) || dt <= 0 {
		return math.NaN()
	}
	return d / dt
}

// DeltaOver returns the raw counter increase over the trailing window
// and the elapsed seconds between the two samples used.
func (h *History) DeltaOver(s *Series, now, window float64) (delta, dt float64) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	start := h.windowStart(now, window)
	if start < 0 {
		return math.NaN(), 0
	}
	// First and last non-NaN samples inside the window.
	firstIdx, lastIdx := -1, -1
	for i := start; i < h.count; i++ {
		if !math.IsNaN(s.vals[h.slot(i)]) {
			if firstIdx < 0 {
				firstIdx = i
			}
			lastIdx = i
		}
	}
	if firstIdx < 0 || firstIdx == lastIdx {
		return math.NaN(), 0
	}
	v0, v1 := s.vals[h.slot(firstIdx)], s.vals[h.slot(lastIdx)]
	if v1 < v0 {
		return math.NaN(), 0
	}
	return v1 - v0, h.times[h.slot(lastIdx)] - h.times[h.slot(firstIdx)]
}

// AvgOver returns the mean of a gauge series over the trailing window,
// skipping missing samples; NaN when none.
func (h *History) AvgOver(s *Series, now, window float64) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	start := h.windowStart(now, window)
	if start < 0 {
		return math.NaN()
	}
	var sum float64
	var n int
	for i := start; i < h.count; i++ {
		v := s.vals[h.slot(i)]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Last returns the most recent sample of a series (NaN when empty).
func (h *History) Last(s *Series) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.count == 0 {
		return math.NaN()
	}
	return s.vals[h.slot(h.count-1)]
}

// QuantileOver returns the q-quantile of the observations a histogram
// series recorded within the trailing window, via the bucket delta
// between the window edges. NaN when the window holds no observations.
func (h *History) QuantileOver(hs *HistSeries, q, now, window float64) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	start := h.windowStart(now, window)
	if start < 0 {
		return math.NaN()
	}
	firstIdx, lastIdx := -1, -1
	for i := start; i < h.count; i++ {
		if hs.have[h.slot(i)] {
			if firstIdx < 0 {
				firstIdx = i
			}
			lastIdx = i
		}
	}
	if firstIdx < 0 {
		return math.NaN()
	}
	newest := hs.snaps[h.slot(lastIdx)]
	if firstIdx == lastIdx {
		return newest.Quantile(q)
	}
	return newest.Sub(hs.snaps[h.slot(firstIdx)]).Quantile(q)
}

// TimeseriesSnapshot is the sparkline-ready JSON served at
// /debug/timeseries: one shared timestamp array plus per-series value
// arrays aligned to it (null = no sample), with min/max/avg/last
// roll-ups computed over the returned span.
type TimeseriesSnapshot struct {
	CadenceSec float64            `json:"cadence_sec"`
	Capacity   int                `json:"capacity"`
	Samples    int                `json:"samples"`
	Times      []float64          `json:"times"`
	Series     []SeriesSnapshot   `json:"series"`
	Quantiles  []QuantileSnapshot `json:"quantiles,omitempty"`
}

// SeriesSnapshot is one scalar series in a TimeseriesSnapshot.
type SeriesSnapshot struct {
	Name   string     `json:"name"`
	Kind   string     `json:"kind"`
	Min    *float64   `json:"min,omitempty"`
	Max    *float64   `json:"max,omitempty"`
	Avg    *float64   `json:"avg,omitempty"`
	Last   *float64   `json:"last,omitempty"`
	Values []*float64 `json:"values"`
}

// QuantileSnapshot is the per-sample trailing-window p50/p99 of one
// histogram series, precomputed server-side so the endpoint stays
// renderable without bucket math in the client.
type QuantileSnapshot struct {
	Name      string     `json:"name"`
	WindowSec float64    `json:"window_sec"`
	P50       []*float64 `json:"p50"`
	P99       []*float64 `json:"p99"`
}

// Snapshot renders the newest maxPoints samples (0 = everything
// retained). histWindow sets the trailing window for the per-sample
// histogram quantiles.
func (h *History) Snapshot(cadence float64, maxPoints int, histWindow float64) TimeseriesSnapshot {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := h.count
	first := 0
	if maxPoints > 0 && n > maxPoints {
		first = n - maxPoints
	}
	out := TimeseriesSnapshot{
		CadenceSec: cadence,
		Capacity:   h.cap,
		Samples:    n - first,
		Times:      make([]float64, 0, n-first),
	}
	for i := first; i < n; i++ {
		out.Times = append(out.Times, h.times[h.slot(i)])
	}
	series := make([]*Series, len(h.series))
	copy(series, h.series)
	sort.Slice(series, func(a, b int) bool { return series[a].name < series[b].name })
	for _, s := range series {
		ss := SeriesSnapshot{
			Name:   s.name,
			Kind:   s.kind.String(),
			Values: make([]*float64, 0, n-first),
		}
		var mn, mx, sum float64
		var cnt int
		for i := first; i < n; i++ {
			v := s.vals[h.slot(i)]
			if math.IsNaN(v) {
				ss.Values = append(ss.Values, nil)
				continue
			}
			vc := v
			ss.Values = append(ss.Values, &vc)
			if cnt == 0 || v < mn {
				mn = v
			}
			if cnt == 0 || v > mx {
				mx = v
			}
			sum += v
			cnt++
		}
		if cnt > 0 {
			avg := sum / float64(cnt)
			last := *ss.Values[len(ss.Values)-1-lastNilRun(ss.Values)]
			ss.Min, ss.Max, ss.Avg, ss.Last = &mn, &mx, &avg, &last
		}
		out.Series = append(out.Series, ss)
	}
	hists := make([]*HistSeries, len(h.hists))
	copy(hists, h.hists)
	sort.Slice(hists, func(a, b int) bool { return hists[a].name < hists[b].name })
	for _, hs := range hists {
		qs := QuantileSnapshot{
			Name:      hs.name,
			WindowSec: histWindow,
			P50:       make([]*float64, 0, n-first),
			P99:       make([]*float64, 0, n-first),
		}
		for i := first; i < n; i++ {
			si := h.slot(i)
			if !hs.have[si] {
				qs.P50 = append(qs.P50, nil)
				qs.P99 = append(qs.P99, nil)
				continue
			}
			// Delta against the sample at this point's trailing
			// window edge (or the oldest available one).
			j := i
			cutoff := h.times[si] - histWindow
			for j > 0 && hs.have[h.slot(j-1)] && h.times[h.slot(j-1)] >= cutoff {
				j--
			}
			d := hs.snaps[si]
			if j < i {
				d = d.Sub(hs.snaps[h.slot(j)])
			}
			qs.P50 = append(qs.P50, finitePtr(d.Quantile(0.50)))
			qs.P99 = append(qs.P99, finitePtr(d.Quantile(0.99)))
		}
		out.Quantiles = append(out.Quantiles, qs)
	}
	return out
}

// lastNilRun counts trailing nils so Last reflects the newest real
// sample even when a late-registered series missed recent slots (it
// can't, but a torn NaN read could).
func lastNilRun(vals []*float64) int {
	n := 0
	for i := len(vals) - 1; i >= 0 && vals[i] == nil; i-- {
		n++
	}
	if n >= len(vals) {
		return 0
	}
	return n
}

func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
