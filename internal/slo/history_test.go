package slo

import (
	"math"
	"testing"

	"vqoe/internal/obs"
)

// TestHistoryRingWraparound fills a small ring several times over and
// checks that retained samples, window queries, and the JSON snapshot
// all agree with the last-capacity suffix of the input.
func TestHistoryRingWraparound(t *testing.T) {
	const capacity = 8
	h := NewHistory(capacity)
	var counter float64
	c := h.AddCounter("c", func() float64 { return counter })
	g := h.AddGauge("g", func() float64 { return counter * 2 })

	const total = 3*capacity + 3 // wrap three times, land mid-ring
	for i := 0; i < total; i++ {
		counter = float64(i)
		h.Sample(float64(1000 + i))
	}
	if got := h.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d", got, capacity)
	}

	now := float64(1000 + total - 1)
	// Oldest retained sample is i = total-capacity, value total-capacity.
	snap := h.Snapshot(1, 0, 60)
	if snap.Samples != capacity {
		t.Fatalf("snapshot samples = %d, want %d", snap.Samples, capacity)
	}
	if snap.Times[0] != float64(1000+total-capacity) {
		t.Fatalf("oldest time = %v, want %v", snap.Times[0], 1000+total-capacity)
	}
	if snap.Times[capacity-1] != now {
		t.Fatalf("newest time = %v, want %v", snap.Times[capacity-1], now)
	}
	for _, ss := range snap.Series {
		want := float64(total - capacity)
		mult := 1.0
		if ss.Name == "g" {
			mult = 2
		}
		for i, v := range ss.Values {
			if v == nil || *v != (want+float64(i))*mult {
				t.Fatalf("series %s value[%d] = %v, want %v", ss.Name, i, v, (want+float64(i))*mult)
			}
		}
		if *ss.Last != (float64(total-1))*mult {
			t.Fatalf("series %s last = %v", ss.Name, *ss.Last)
		}
		if *ss.Min != want*mult || *ss.Max != float64(total-1)*mult {
			t.Fatalf("series %s min/max = %v/%v", ss.Name, *ss.Min, *ss.Max)
		}
	}

	// Counter rose 1/sample at 1s cadence: rate over any window = 1.
	if r := h.RateOver(c, now, 5); math.Abs(r-1) > 1e-9 {
		t.Fatalf("RateOver = %v, want 1", r)
	}
	// Window wider than the ring clamps to retained history.
	if r := h.RateOver(c, now, 1e6); math.Abs(r-1) > 1e-9 {
		t.Fatalf("RateOver clamped = %v, want 1", r)
	}
	// Gauge average over the last 4 samples (values 2*(total-4..total-1)).
	wantAvg := 2 * (float64(total-4+total-1) / 2)
	if a := h.AvgOver(g, now, 3); math.Abs(a-wantAvg) > 1e-9 {
		t.Fatalf("AvgOver = %v, want %v", a, wantAvg)
	}
}

// TestHistoryLateRegistration checks a series added mid-flight reads
// as missing for earlier slots and participates after.
func TestHistoryLateRegistration(t *testing.T) {
	h := NewHistory(8)
	for i := 0; i < 4; i++ {
		h.Sample(float64(i))
	}
	v := 10.0
	late := h.AddGauge("late", func() float64 { return v })
	h.Sample(4)
	snap := h.Snapshot(1, 0, 60)
	ss := snap.Series[0]
	if len(ss.Values) != 5 {
		t.Fatalf("values = %d, want 5", len(ss.Values))
	}
	for i := 0; i < 4; i++ {
		if ss.Values[i] != nil {
			t.Fatalf("pre-registration slot %d = %v, want nil", i, *ss.Values[i])
		}
	}
	if ss.Values[4] == nil || *ss.Values[4] != 10 {
		t.Fatalf("post-registration slot = %v, want 10", ss.Values[4])
	}
	if a := h.AvgOver(late, 4, 100); a != 10 {
		t.Fatalf("AvgOver skipping missing = %v, want 10", a)
	}
	if r := h.RateOver(late, 4, 100); !math.IsNaN(r) {
		t.Fatalf("RateOver with one sample = %v, want NaN", r)
	}
}

// TestQuantileOverWindow drives a histogram series and checks the
// windowed quantile reflects only in-window observations.
func TestQuantileOverWindow(t *testing.T) {
	h := NewHistory(64)
	var hist obs.Histogram
	hs := h.AddHistogram("lat", func() obs.HistogramSnapshot { return hist.Snapshot() })

	// Ticks 0-9: slow observations (~0.4s).
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			hist.Observe(0.4)
		}
		h.Sample(float64(i))
	}
	// Ticks 10-19: fast observations (~2ms).
	for i := 10; i < 20; i++ {
		for j := 0; j < 10; j++ {
			hist.Observe(0.002)
		}
		h.Sample(float64(i))
	}
	// Over the last 5 ticks only fast observations are in the delta.
	q := h.QuantileOver(hs, 0.99, 19, 5)
	if math.IsNaN(q) || q > 0.01 {
		t.Fatalf("windowed p99 = %v, want <= 0.01 (fast-only window)", q)
	}
	// Over everything the slow half dominates the p99.
	q = h.QuantileOver(hs, 0.99, 19, 1000)
	if math.IsNaN(q) || q < 0.1 {
		t.Fatalf("full-history p99 = %v, want >= 0.1", q)
	}
}

// TestBurnRateOver checks the budget arithmetic directly.
func TestBurnRateOver(t *testing.T) {
	h := NewHistory(32)
	var errs, total float64
	es := h.AddCounter("errs", func() float64 { return errs })
	ts := h.AddCounter("total", func() float64 { return total })
	// 2% error ratio against a 1% objective = burn 2x.
	for i := 0; i < 10; i++ {
		errs = float64(i) * 2
		total = float64(i) * 100
		h.Sample(float64(i))
	}
	b := h.BurnRateOver(es, ts, 9, 100, 0.01)
	if math.Abs(b-2) > 1e-9 {
		t.Fatalf("burn = %v, want 2", b)
	}
	// No traffic in window: burn 0, not NaN.
	for i := 10; i < 15; i++ {
		h.Sample(float64(i))
	}
	b = h.BurnRateOver(es, ts, 14, 4, 0.01)
	if b != 0 {
		t.Fatalf("idle burn = %v, want 0", b)
	}
}

// TestHistogramSnapshotSubQuantile covers the obs helpers this package
// leans on.
func TestHistogramSnapshotSubQuantile(t *testing.T) {
	var hist obs.Histogram
	for i := 0; i < 100; i++ {
		hist.Observe(0.003)
	}
	older := hist.Snapshot()
	for i := 0; i < 100; i++ {
		hist.Observe(0.3)
	}
	d := hist.Snapshot().Sub(older)
	if d.Count != 100 {
		t.Fatalf("delta count = %d, want 100", d.Count)
	}
	if q := d.Quantile(0.5); q < 0.25 || q > 0.5 {
		t.Fatalf("delta p50 = %v, want within (0.25, 0.5] bucket", q)
	}
	var empty obs.HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

// TestSlowWindowCoveredAtAnyCadence checks the ring an Engine sizes
// spans the slow burn window at a sub-second cadence, so a burn-rate
// rule whose detail prints slow(3600s) reads 3600 s of history, and
// that the default cadence keeps 4096-sample rings.
func TestSlowWindowCoveredAtAnyCadence(t *testing.T) {
	if c := New(Config{Manual: true}).Timeseries(1).Capacity; c != 4096 {
		t.Errorf("capacity at the default cadence = %d, want 4096", c)
	}
	now := 1000.0
	e := New(Config{CadenceSec: 0.5, Manual: true, Now: func() float64 { return now }})
	var n float64
	s := e.History().AddCounter("c", func() float64 { return n })
	for i := 0; i < 9000; i++ {
		n++
		now += 0.5
		e.Tick(now)
	}
	if _, dt := e.History().DeltaOver(s, now, 3600); dt < 3599.5 {
		t.Fatalf("the 3600s window spans %.1fs of history at a 0.5s cadence", dt)
	}
}

// TestSnapshotQuantilesMatchQuantileOver checks the /debug/timeseries
// quantile track and the rules' QuantileOver walk the same window: on a
// late-registered histogram, in a ring that has wrapped, the newest
// p50/p99 point equals QuantileOver at that sample's time.
func TestSnapshotQuantilesMatchQuantileOver(t *testing.T) {
	h := NewHistory(16)
	for i := 0; i < 5; i++ {
		h.Sample(float64(i))
	}
	var hist obs.Histogram
	hs := h.AddHistogram("lat", func() obs.HistogramSnapshot { return hist.Snapshot() })
	for i := 5; i < 20; i++ {
		lat := 0.4
		if i >= 12 {
			lat = 0.002
		}
		for j := 0; j < 10; j++ {
			hist.Observe(lat * float64(1+j%3))
		}
		h.Sample(float64(i))
	}
	for _, w := range []float64{3, 10, 100} {
		snap := h.Snapshot(1, 0, w)
		qs := snap.Quantiles[0]
		if qs.P50[0] != nil {
			t.Fatalf("window %v: pre-registration point = %v, want nil", w, *qs.P50[0])
		}
		last := len(snap.Times) - 1
		for _, c := range []struct {
			q   float64
			got *float64
		}{{0.50, qs.P50[last]}, {0.99, qs.P99[last]}} {
			got := math.NaN() // a nil point never matches
			if c.got != nil {
				got = *c.got
			}
			if want := h.QuantileOver(hs, c.q, snap.Times[last], w); got != want {
				t.Errorf("window %v: newest p%v point = %v, QuantileOver = %v", w, 100*c.q, got, want)
			}
		}
	}
}
