package pipeline

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vqoe/internal/obs"
)

// processStart anchors vqoe_process_start_time_seconds: captured once
// when the package loads, which for these binaries is process start.
var processStart = time.Now()

// Metrics renders the Prometheus text exposition an operator's existing
// scrape infrastructure reads to watch the QoE monitor itself. It holds
// no count of its own: every family is rendered by the collector of the
// subsystem that counts it (telemetry.go), so /metrics, the SLO sampler
// and /debug/* read one number each. Safe for concurrent use; the mutex
// guards only the collector list and the process-gauge settings, and no
// report path takes it.
//
// Every family in the exposition is self-describing (# HELP and
// # TYPE precede its samples) and deterministic: label values are
// emitted in sorted order and multi-shard families are grouped by
// family, not by shard, as the text format requires.
type Metrics struct {
	mu sync.Mutex

	// collectors render the subsystem families after the process
	// gauges, in registration order (see telemetry.go). Append-only.
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
		runtime:   true,
		procStart: processStart,
		procNow:   time.Now,
	}
}

// collect appends one subsystem's exposition collector.
func (m *Metrics) collect(fn func(*expoWriter)) {
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
// le= buckets over the given upper bounds (counts holds one bin per
// bound, then the +Inf overflow), then _sum and _count — under the
// rendered label pairs ("" for none).
func (e *expoWriter) histogram(name, labels string, bounds []float64, counts []uint64, sum float64) {
	bucket, tail := "%s_bucket{%s,le=\"%s\"} %d\n", "%s_sum{%s} %g\n%s_count{%s} %d\n"
	if labels == "" {
		bucket, tail = "%s_bucket{%sle=\"%s\"} %d\n", "%s_sum%s %g\n%s_count%s %d\n"
	}
	cum := uint64(0)
	for i, b := range bounds {
		cum += counts[i]
		e.printf(bucket, name, labels, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += counts[len(bounds)]
	e.printf(bucket, name, labels, "+Inf", cum)
	e.printf(tail, name, labels, sum, name, labels, cum)
}

// bucketBounds is obs's fixed bucket layout, fetched once.
var bucketBounds = obs.BucketBounds()

// WriteTo renders the Prometheus text exposition. The mutex covers
// only the read of the collector list and the process settings: the
// subsystem collectors (engine snapshot, quality verdicts, cohort
// stripe merge) and runtime.ReadMemStats run after it is released.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
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
