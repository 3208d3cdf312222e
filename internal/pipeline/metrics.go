package pipeline

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"vqoe/internal/features"
	"vqoe/internal/obs"
	"vqoe/internal/stats"
)

// processStart anchors vqoe_process_start_time_seconds: captured once
// when the package loads, which for these binaries is process start.
var processStart = time.Now()

// Metrics aggregates the pipeline's output for operational monitoring.
// It renders in the Prometheus text exposition format so an operator's
// existing scrape infrastructure can watch the QoE monitor itself.
// Safe for concurrent use: the session-level aggregates — including the
// P² quantile estimators, which are not themselves thread-safe — are
// serialized behind the mutex. Entries are the engine's to count
// (EngineTelemetry), not this collector's.
//
// Every family in the exposition is self-describing (# HELP and
// # TYPE precede its samples) and deterministic: label values are
// emitted in sorted order and multi-shard families are grouped by
// family, not by shard, as the text format requires.
type Metrics struct {
	mu sync.Mutex

	sessionsTotal int64
	stallCounts   [3]int64
	repCounts     [3]int64
	switchVarying int64

	// rolling quantile estimators over per-session chunk counts and
	// switch scores (constant memory, P² estimators)
	chunkP50 *stats.P2Quantile
	chunkP90 *stats.P2Quantile
	scoreP90 *stats.P2Quantile

	// collectors render the subsystem families after Metrics' own, in
	// registration order (see telemetry.go). Append-only.
	collectors []func(*expoWriter)

	// procStart / procNow drive the process start-time and uptime
	// gauges; tests pin both for byte-identical renders.
	procStart time.Time
	procNow   func() time.Time

	// runtime controls whether process-introspection gauges
	// (goroutines, heap, GC pauses) are appended to the exposition.
	runtime bool
}

// NewMetrics returns an empty collector with runtime introspection
// gauges enabled.
func NewMetrics() *Metrics {
	return &Metrics{
		chunkP50:  stats.NewP2Quantile(0.5),
		chunkP90:  stats.NewP2Quantile(0.9),
		scoreP90:  stats.NewP2Quantile(0.9),
		runtime:   true,
		procStart: processStart,
		procNow:   time.Now,
	}
}

// collect appends one subsystem's exposition collector. A nil Metrics
// is the "no /metrics served" mode: the collector is dropped.
func (m *Metrics) collect(fn func(*expoWriter)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.collectors = append(m.collectors, fn)
	m.mu.Unlock()
}

// SetProcessClock pins the start time and wall clock behind the
// process gauges so tests can assert byte-identical renders.
func (m *Metrics) SetProcessClock(start time.Time, now func() time.Time) {
	m.mu.Lock()
	m.procStart = start
	m.procNow = now
	m.mu.Unlock()
}

// SetRuntimeMetrics toggles the process-introspection gauges in the
// exposition (on by default; tests that diff exact output turn it
// off).
func (m *Metrics) SetRuntimeMetrics(on bool) {
	m.mu.Lock()
	m.runtime = on
	m.mu.Unlock()
}

// ObserveReport records a finished session's assessment.
func (m *Metrics) ObserveReport(r SessionReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsTotal++
	if int(r.Report.Stall) >= 0 && int(r.Report.Stall) < 3 {
		m.stallCounts[r.Report.Stall]++
	}
	if int(r.Report.Representation) >= 0 && int(r.Report.Representation) < 3 {
		m.repCounts[r.Report.Representation]++
	}
	if r.Report.SwitchVariance {
		m.switchVarying++
	}
	m.chunkP50.Observe(float64(r.Report.Chunks))
	m.chunkP90.Observe(float64(r.Report.Chunks))
	m.scoreP90.Observe(r.Report.SwitchScore)
}

// expoWriter accumulates the byte count for WriteTo while preserving
// the first write error.
type expoWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (e *expoWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	k, err := fmt.Fprintf(e.w, format, args...)
	e.n += int64(k)
	e.err = err
}

// family emits the # HELP / # TYPE header for one metric family.
func (e *expoWriter) family(name, help, typ string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// histogram emits one series of a histogram family — cumulative
// le= buckets, then _sum and _count — under the rendered label pairs.
func (e *expoWriter) histogram(name, labels string, h obs.HistogramSnapshot) {
	cum := uint64(0)
	for i, b := range bucketBounds {
		cum += h.Counts[i]
		e.printf("%s_bucket{%s,le=\"%s\"} %d\n", name, labels, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	e.printf("%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.Count)
	e.printf("%s_sum{%s} %g\n", name, labels, h.Sum)
	e.printf("%s_count{%s} %d\n", name, labels, h.Count)
}

// bucketBounds is obs's fixed bucket layout, fetched once.
var bucketBounds = obs.BucketBounds()

// sortedByLabel pairs a class counter with its label value so label
// order in the exposition is sorted, not declaration order.
func sortedByLabel(names []string, counts [3]int64) []struct {
	label string
	count int64
} {
	out := make([]struct {
		label string
		count int64
	}, len(names))
	for i, n := range names {
		out[i].label = n
		out[i].count = counts[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// WriteTo renders the Prometheus text exposition. The mutex covers
// only the read of Metrics' own aggregates: the subsystem collectors
// (cohort stripe merge, engine snapshot, quality verdicts) and
// runtime.ReadMemStats run after it is released, so a slow scrape
// never blocks the shards' report sinks in ObserveReport.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	sessions, stalls, reps, varying := m.sessionsTotal, m.stallCounts, m.repCounts, m.switchVarying
	chunkP50, chunkP90, scoreP90 := m.chunkP50.Value(), m.chunkP90.Value(), m.scoreP90.Value()
	procStart, procNow, runtimeOn := m.procStart, m.procNow, m.runtime
	collectors := m.collectors // append-only: the elements under this header never change
	m.mu.Unlock()
	e := &expoWriter{w: w}

	bi := buildInfo()
	e.family("vqoe_build_info", "Build metadata of the running binary (constant 1).", "gauge")
	e.printf("vqoe_build_info{go_version=%q,version=%q} 1\n", bi.goVersion, bi.version)

	e.family("vqoe_process_start_time_seconds", "Unix time the process started.", "gauge")
	e.printf("vqoe_process_start_time_seconds %.3f\n", float64(procStart.UnixNano())/1e9)
	e.family("vqoe_process_uptime_seconds", "Seconds since the process started.", "gauge")
	e.printf("vqoe_process_uptime_seconds %.3f\n", procNow().Sub(procStart).Seconds())

	e.family("vqoe_sessions_total", "Sessions assessed.", "counter")
	e.printf("vqoe_sessions_total %d\n", sessions)

	e.family("vqoe_sessions_by_stall", "Sessions assessed, by predicted stall level.", "counter")
	for _, s := range sortedByLabel(features.StallLabelNames, stalls) {
		e.printf("vqoe_sessions_by_stall{level=%q} %d\n", s.label, s.count)
	}

	e.family("vqoe_sessions_by_quality", "Sessions assessed, by predicted representation quality.", "counter")
	for _, s := range sortedByLabel(features.RepLabelNames, reps) {
		e.printf("vqoe_sessions_by_quality{level=%q} %d\n", s.label, s.count)
	}

	e.family("vqoe_sessions_switch_varying", "Sessions flagged with representation-switch variance.", "counter")
	e.printf("vqoe_sessions_switch_varying %d\n", varying)

	e.family("vqoe_session_chunks", "Rolling per-session media chunk count (P2 estimate).", "summary")
	e.printf("vqoe_session_chunks{quantile=\"0.5\"} %g\nvqoe_session_chunks{quantile=\"0.9\"} %g\n",
		chunkP50, chunkP90)

	e.family("vqoe_switch_score", "Rolling per-session switch change score (P2 estimate).", "summary")
	e.printf("vqoe_switch_score{quantile=\"0.9\"} %g\n", scoreP90)

	for _, collect := range collectors {
		collect(e)
	}
	if runtimeOn {
		obs.WriteRuntimeMetrics(e.printf)
	}
	return e.n, e.err
}

// Handler serves the metrics over HTTP (GET only).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = m.WriteTo(w)
	})
}
