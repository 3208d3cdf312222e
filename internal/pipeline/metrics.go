package pipeline

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vqoe/internal/cohort"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/wire"
)

// processStart anchors vqoe_process_start_time_seconds: captured once
// when the package loads, which for these binaries is process start.
var processStart = time.Now()

// Metrics aggregates the pipeline's output for operational monitoring.
// It renders in the Prometheus text exposition format so an operator's
// existing scrape infrastructure can watch the QoE monitor itself.
// Safe for concurrent use: the entry counter is a bare atomic (it is
// the per-event hot path, hit by every engine shard), while the
// session-level aggregates — including the P² quantile estimators,
// which are not themselves thread-safe — are serialized behind the
// mutex.
//
// Every family in the exposition is self-describing (# HELP and
// # TYPE precede its samples) and deterministic: label values are
// emitted in sorted order and multi-shard families are grouped by
// family, not by shard, as the text format requires.
type Metrics struct {
	entriesTotal atomic.Int64

	mu sync.Mutex

	sessionsTotal int64
	stallCounts   [3]int64
	repCounts     [3]int64
	switchVarying int64

	// rolling quantile estimators over per-session chunk counts and
	// switch scores (constant memory, P² estimators)
	chunkP50 *streamQ
	chunkP90 *streamQ
	scoreP90 *streamQ

	// engineStats, when attached, supplies per-shard gauges for the
	// exposition (typically Engine.Snapshot).
	engineStats func() []engine.ShardStats

	// stageStats, when attached, supplies the per-shard stage-latency
	// histograms (typically Observer.StageSnapshots).
	stageStats func() []obs.StageSetSnapshot

	// qualityStats, when attached, supplies the model-quality health
	// snapshot (typically Monitor.Snapshot) for the vqoe_model_*
	// families.
	qualityStats func() qualitymon.Snapshot

	// wireStats, when attached, supplies the binary-ingest listener's
	// counters (typically wire.Server.Snapshot) for the vqoe_wire_*
	// families.
	wireStats func() wire.Snapshot

	// cohortStats, when attached, supplies the fleet-rollup snapshot
	// (typically cohort.Rollup.Snapshot) for the vqoe_cohort_*
	// families. The rollup's cardinality cap bounds the label space.
	cohortStats func() *cohort.Snapshot

	// flightStats, when attached, supplies the flight recorder's
	// counters (typically flight.Recorder.Metrics) for the
	// vqoe_flight_* families.
	flightStats func() flight.MetricsSnapshot

	// alertStats, when attached, supplies per-rule alert states and
	// transition counters (typically slo.Engine.StateRows) for the
	// vqoe_alert_* families.
	alertStats func() []slo.StateRow

	// procStart / procNow drive the process start-time and uptime
	// gauges; tests pin both for byte-identical renders.
	procStart time.Time
	procNow   func() time.Time

	// runtime controls whether process-introspection gauges
	// (goroutines, heap, GC pauses) are appended to the exposition.
	runtime bool
}

// streamQ is declared in quantile.go as the P² bridge.

// NewMetrics returns an empty collector with runtime introspection
// gauges enabled.
func NewMetrics() *Metrics {
	return &Metrics{
		chunkP50:  newStreamQ(0.5),
		chunkP90:  newStreamQ(0.9),
		scoreP90:  newStreamQ(0.9),
		runtime:   true,
		procStart: processStart,
		procNow:   time.Now,
	}
}

// ObserveEntries counts a batch of processed weblog entries.
func (m *Metrics) ObserveEntries(n int) { m.entriesTotal.Add(int64(n)) }

// AttachEngine wires per-shard gauges into the exposition; fn is
// usually (*engine.Engine).Snapshot. Pass nil to detach.
func (m *Metrics) AttachEngine(fn func() []engine.ShardStats) {
	m.mu.Lock()
	m.engineStats = fn
	m.mu.Unlock()
}

// AttachStages wires per-shard stage-latency histograms into the
// exposition; fn is usually (*obs.Observer).StageSnapshots. Pass nil
// to detach.
func (m *Metrics) AttachStages(fn func() []obs.StageSetSnapshot) {
	m.mu.Lock()
	m.stageStats = fn
	m.mu.Unlock()
}

// AttachQuality wires the model-quality monitor into the exposition;
// fn is usually (*qualitymon.Monitor).Snapshot. Pass nil to detach.
func (m *Metrics) AttachQuality(fn func() qualitymon.Snapshot) {
	m.mu.Lock()
	m.qualityStats = fn
	m.mu.Unlock()
}

// AttachWire wires the binary-ingest listener into the exposition;
// fn is usually (*wire.Server).Snapshot. Pass nil to detach.
func (m *Metrics) AttachWire(fn func() wire.Snapshot) {
	m.mu.Lock()
	m.wireStats = fn
	m.mu.Unlock()
}

// AttachCohorts wires the fleet-rollup layer into the exposition; fn
// is usually (*cohort.Rollup).Snapshot. Pass nil to detach.
func (m *Metrics) AttachCohorts(fn func() *cohort.Snapshot) {
	m.mu.Lock()
	m.cohortStats = fn
	m.mu.Unlock()
}

// AttachFlight wires the session flight recorder into the exposition;
// fn is usually (*flight.Recorder).Metrics. Pass nil to detach.
func (m *Metrics) AttachFlight(fn func() flight.MetricsSnapshot) {
	m.mu.Lock()
	m.flightStats = fn
	m.mu.Unlock()
}

// AttachAlerts wires the SLO alert state machine into the exposition;
// fn is usually (*slo.Engine).StateRows. Pass nil to detach.
func (m *Metrics) AttachAlerts(fn func() []slo.StateRow) {
	m.mu.Lock()
	m.alertStats = fn
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
	m.chunkP50.observe(float64(r.Report.Chunks))
	m.chunkP90.observe(float64(r.Report.Chunks))
	m.scoreP90.observe(r.Report.SwitchScore)
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

// WriteTo renders the Prometheus text exposition.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := &expoWriter{w: w}

	bi := buildInfo()
	e.family("vqoe_build_info", "Build metadata of the running binary (constant 1).", "gauge")
	e.printf("vqoe_build_info{go_version=%q,version=%q} 1\n", bi.goVersion, bi.version)

	e.family("vqoe_process_start_time_seconds", "Unix time the process started.", "gauge")
	e.printf("vqoe_process_start_time_seconds %.3f\n", float64(m.procStart.UnixNano())/1e9)
	e.family("vqoe_process_uptime_seconds", "Seconds since the process started.", "gauge")
	e.printf("vqoe_process_uptime_seconds %.3f\n", m.procNow().Sub(m.procStart).Seconds())

	e.family("vqoe_entries_total", "Weblog entries processed.", "counter")
	e.printf("vqoe_entries_total %d\n", m.entriesTotal.Load())

	e.family("vqoe_sessions_total", "Sessions assessed.", "counter")
	e.printf("vqoe_sessions_total %d\n", m.sessionsTotal)

	e.family("vqoe_sessions_by_stall", "Sessions assessed, by predicted stall level.", "counter")
	for _, s := range sortedByLabel(features.StallLabelNames, m.stallCounts) {
		e.printf("vqoe_sessions_by_stall{level=%q} %d\n", s.label, s.count)
	}

	e.family("vqoe_sessions_by_quality", "Sessions assessed, by predicted representation quality.", "counter")
	for _, s := range sortedByLabel(features.RepLabelNames, m.repCounts) {
		e.printf("vqoe_sessions_by_quality{level=%q} %d\n", s.label, s.count)
	}

	e.family("vqoe_sessions_switch_varying", "Sessions flagged with representation-switch variance.", "counter")
	e.printf("vqoe_sessions_switch_varying %d\n", m.switchVarying)

	e.family("vqoe_session_chunks", "Rolling per-session media chunk count (P2 estimate).", "summary")
	e.printf("vqoe_session_chunks{quantile=\"0.5\"} %g\nvqoe_session_chunks{quantile=\"0.9\"} %g\n",
		m.chunkP50.value(), m.chunkP90.value())

	e.family("vqoe_switch_score", "Rolling per-session switch change score (P2 estimate).", "summary")
	e.printf("vqoe_switch_score{quantile=\"0.9\"} %g\n", m.scoreP90.value())

	if m.engineStats != nil {
		m.writeEngine(e, m.engineStats())
	}
	if m.stageStats != nil {
		m.writeStages(e, m.stageStats())
	}
	if m.qualityStats != nil {
		m.writeQuality(e, m.qualityStats())
	}
	if m.wireStats != nil {
		m.writeWire(e, m.wireStats())
	}
	if m.cohortStats != nil {
		m.writeCohorts(e, m.cohortStats())
	}
	if m.flightStats != nil {
		m.writeFlight(e, m.flightStats())
	}
	if m.alertStats != nil {
		m.writeAlerts(e, m.alertStats())
	}
	if e.err != nil {
		return e.n, e.err
	}
	if m.runtime {
		k, err := obs.WriteRuntimeMetrics(w)
		e.n += k
		e.err = err
	}
	return e.n, e.err
}

// writeEngine renders the per-shard engine gauges grouped by family
// (the text format requires all samples of a family to be contiguous).
func (m *Metrics) writeEngine(e *expoWriter, stats []engine.ShardStats) {
	families := []struct {
		name, help, typ string
		value           func(engine.ShardStats) int64
	}{
		{"vqoe_engine_shard_open_sessions", "Sessions tracked per shard.", "gauge",
			func(s engine.ShardStats) int64 { return int64(s.Open) }},
		{"vqoe_engine_shard_mailbox_depth", "Queued messages per shard mailbox.", "gauge",
			func(s engine.ShardStats) int64 { return int64(s.Mailbox) }},
		{"vqoe_engine_shard_entries_total", "Entries processed per shard.", "counter",
			func(s engine.ShardStats) int64 { return s.Events }},
		{"vqoe_engine_shard_dropped_total", "Entries shed per shard on a full mailbox.", "counter",
			func(s engine.ShardStats) int64 { return s.Dropped }},
		{"vqoe_engine_shard_reports_total", "Session reports emitted per shard.", "counter",
			func(s engine.ShardStats) int64 { return s.Reports }},
		{"vqoe_engine_shard_evicted_total", "Sessions closed per shard by the idle clock.", "counter",
			func(s engine.ShardStats) int64 { return s.Evicted }},
	}
	for _, fam := range families {
		e.family(fam.name, fam.help, fam.typ)
		for _, s := range stats {
			e.printf("%s{shard=\"%d\"} %d\n", fam.name, s.Shard, fam.value(s))
		}
	}
}

// writeStages renders the stage-latency histograms: one Prometheus
// histogram family with stage and shard labels, cumulative buckets,
// and per-series _sum/_count.
func (m *Metrics) writeStages(e *expoWriter, snaps []obs.StageSetSnapshot) {
	const name = "vqoe_stage_duration_seconds"
	e.family(name, "Pipeline stage latency per engine shard.", "histogram")
	bounds := obs.BucketBounds()
	for shard, snap := range snaps {
		for _, st := range obs.Stages() {
			h := snap[st]
			cum := uint64(0)
			for i, b := range bounds {
				cum += h.Counts[i]
				e.printf("%s_bucket{stage=%q,shard=\"%d\",le=\"%s\"} %d\n",
					name, st.String(), shard, strconv.FormatFloat(b, 'g', -1, 64), cum)
			}
			e.printf("%s_bucket{stage=%q,shard=\"%d\",le=\"+Inf\"} %d\n", name, st.String(), shard, h.Count)
			e.printf("%s_sum{stage=%q,shard=\"%d\"} %g\n", name, st.String(), shard, h.Sum)
			e.printf("%s_count{stage=%q,shard=\"%d\"} %d\n", name, st.String(), shard, h.Count)
		}
	}
}

// writeQuality renders the model-quality families from a monitor
// snapshot. Families that would be empty are suppressed entirely (a
// declared-but-sampleless family is legal but useless; the baseline
// families are simply absent when no model carries a baseline).
func (m *Metrics) writeQuality(e *expoWriter, q qualitymon.Snapshot) {
	if len(q.Models) == 0 {
		return
	}
	e.family("vqoe_model_predictions_total", "Sessions assessed per model, by predicted class.", "counter")
	for _, ms := range q.Models {
		idx := sortedIdx(ms.Classes)
		for _, i := range idx {
			e.printf("vqoe_model_predictions_total{class=%q,model=%q} %d\n", ms.Classes[i], ms.Name, ms.Counts[i])
		}
	}

	e.family("vqoe_model_mean_confidence", "Mean top-vote confidence of the model's predictions.", "gauge")
	for _, ms := range q.Models {
		e.printf("vqoe_model_mean_confidence{model=%q} %g\n", ms.Name, ms.MeanConfidence)
	}

	e.family("vqoe_model_ece", "Expected calibration error over labelled predictions.", "gauge")
	for _, ms := range q.Models {
		e.printf("vqoe_model_ece{model=%q} %g\n", ms.Name, ms.ECE)
	}

	e.family("vqoe_model_labeled_total", "Predictions matched with delayed ground-truth labels.", "counter")
	for _, ms := range q.Models {
		e.printf("vqoe_model_labeled_total{model=%q} %d\n", ms.Name, ms.Labeled)
	}

	e.family("vqoe_model_online_accuracy", "Accuracy over labelled predictions.", "gauge")
	for _, ms := range q.Models {
		e.printf("vqoe_model_online_accuracy{model=%q} %g\n", ms.Name, ms.OnlineAccuracy)
	}

	var withBase []qualitymon.ModelSnapshot
	for _, ms := range q.Models {
		if ms.HasBaseline {
			withBase = append(withBase, ms)
		}
	}
	if len(withBase) > 0 {
		e.family("vqoe_model_feature_psi", "Population stability index of each selected feature vs its training baseline.", "gauge")
		for _, ms := range withBase {
			feats := append([]qualitymon.FeatureDrift(nil), ms.Features...)
			sort.Slice(feats, func(i, j int) bool { return feats[i].Name < feats[j].Name })
			for _, f := range feats {
				e.printf("vqoe_model_feature_psi{feature=%q,model=%q} %g\n", f.Name, ms.Name, f.PSI)
			}
		}
		e.family("vqoe_model_prior_psi", "PSI of the predicted-class distribution vs training priors.", "gauge")
		for _, ms := range withBase {
			e.printf("vqoe_model_prior_psi{model=%q} %g\n", ms.Name, ms.PriorPSI)
		}
		e.family("vqoe_model_baseline_accuracy", "Held-out cross-validation accuracy captured at training time.", "gauge")
		for _, ms := range withBase {
			e.printf("vqoe_model_baseline_accuracy{model=%q} %g\n", ms.Name, ms.BaselineAccuracy)
		}
	}

	e.family("vqoe_model_degraded", "1 when the model trips a degradation threshold (drift, prior shift, or accuracy drop).", "gauge")
	for _, ms := range q.Models {
		v := 0
		if ms.Degraded {
			v = 1
		}
		e.printf("vqoe_model_degraded{model=%q} %d\n", ms.Name, v)
	}

	e.family("vqoe_quality_labels_total", "Ground-truth labels received on the side-channel.", "counter")
	e.printf("vqoe_quality_labels_total %d\n", q.Labels.Total)
	e.family("vqoe_quality_labels_matched_total", "Ground-truth labels matched to a tracked prediction.", "counter")
	e.printf("vqoe_quality_labels_matched_total %d\n", q.Labels.Matched)
}

// writeWire renders the binary-ingest listener families: connection
// and protocol-volume counters plus the merged per-connection stage
// histogram (only when stage timing was enabled on the listener).
func (m *Metrics) writeWire(e *expoWriter, s wire.Snapshot) {
	counters := []struct {
		name, help, typ string
		value           int64
	}{
		{"vqoe_wire_connections_total", "Wire connections ever accepted.", "counter", s.ConnsTotal},
		{"vqoe_wire_connections_active", "Wire connections currently open.", "gauge", s.ConnsActive},
		{"vqoe_wire_frames_total", "Wire frames decoded.", "counter", s.Frames},
		{"vqoe_wire_entries_total", "Weblog entries received over the wire protocol.", "counter", s.Entries},
		{"vqoe_wire_labels_total", "Ground-truth labels received over the wire protocol.", "counter", s.Labels},
		{"vqoe_wire_bytes_total", "Wire protocol bytes decoded (headers + payloads).", "counter", s.Bytes},
		{"vqoe_wire_errors_total", "Wire connections terminated by protocol or transport faults.", "counter", s.Errors},
		{"vqoe_wire_acks_total", "Wire ack frames answered.", "counter", s.Acks},
	}
	for _, fam := range counters {
		e.family(fam.name, fam.help, fam.typ)
		e.printf("%s %d\n", fam.name, fam.value)
	}
	if s.Stages[obs.StageWireDecode].Count == 0 && s.Stages[obs.StageIngest].Count == 0 {
		return
	}
	const name = "vqoe_wire_stage_duration_seconds"
	e.family(name, "Wire listener stage latency, merged over connections.", "histogram")
	bounds := obs.BucketBounds()
	for _, st := range []obs.Stage{obs.StageWireDecode, obs.StageIngest} {
		h := s.Stages[st]
		cum := uint64(0)
		for i, b := range bounds {
			cum += h.Counts[i]
			e.printf("%s_bucket{stage=%q,le=\"%s\"} %d\n",
				name, st.String(), strconv.FormatFloat(b, 'g', -1, 64), cum)
		}
		e.printf("%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, st.String(), h.Count)
		e.printf("%s_sum{stage=%q} %g\n", name, st.String(), h.Sum)
		e.printf("%s_count{stage=%q} %d\n", name, st.String(), h.Count)
	}
}

// writeCohorts renders the fleet-rollup families. The cohort label
// space is hard-bounded: the rollup caps distinct cohorts and folds
// evictions into a single "overflow" series, and label values are
// emitted in sorted order so the exposition is deterministic for a
// given rollup state. Suppressed entirely before the first session.
func (m *Metrics) writeCohorts(e *expoWriter, snap *cohort.Snapshot) {
	if snap == nil || (len(snap.Cohorts) == 0 && snap.Overflow == nil) {
		return
	}
	rows := append([]cohort.Stats(nil), snap.Cohorts...)
	if snap.Overflow != nil {
		rows = append(rows, *snap.Overflow)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cohort < rows[j].Cohort })

	e.family("vqoe_cohort_sessions_total", "Sessions assessed per cohort (region/device/cap).", "counter")
	for _, c := range rows {
		e.printf("vqoe_cohort_sessions_total{cohort=%q} %d\n", c.Cohort, c.Sessions)
	}

	e.family("vqoe_cohort_mos", "Streaming per-cohort MOS quantiles (P2 estimates, merged over shards).", "summary")
	for _, c := range rows {
		e.printf("vqoe_cohort_mos{cohort=%q,quantile=\"0.1\"} %g\n", c.Cohort, c.MOSP10)
		e.printf("vqoe_cohort_mos{cohort=%q,quantile=\"0.5\"} %g\n", c.Cohort, c.MOSP50)
		e.printf("vqoe_cohort_mos{cohort=%q,quantile=\"0.9\"} %g\n", c.Cohort, c.MOSP90)
		e.printf("vqoe_cohort_mos_sum{cohort=%q} %g\n", c.Cohort, c.MOSMean*float64(c.Sessions))
		e.printf("vqoe_cohort_mos_count{cohort=%q} %d\n", c.Cohort, c.Sessions)
	}

	e.family("vqoe_cohort_impaired_total", "Sessions per cohort with a detected impairment, by kind.", "counter")
	for _, c := range rows {
		// impairment label values emitted in sorted order
		e.printf("vqoe_cohort_impaired_total{cohort=%q,impairment=\"low_quality\"} %d\n", c.Cohort, c.LowQuality)
		e.printf("vqoe_cohort_impaired_total{cohort=%q,impairment=\"stall\"} %d\n", c.Cohort, c.Stalled)
		e.printf("vqoe_cohort_impaired_total{cohort=%q,impairment=\"switching\"} %d\n", c.Cohort, c.Switched)
	}

	e.family("vqoe_cohort_capacity", "Configured cohort cardinality cap.", "gauge")
	e.printf("vqoe_cohort_capacity %d\n", snap.Capacity)
	e.family("vqoe_cohort_evicted_total", "Distinct cohort keys folded into the overflow bucket by the cap.", "counter")
	e.printf("vqoe_cohort_evicted_total %d\n", snap.Evicted)
}

// writeFlight renders the session flight recorder families: sampling
// counters split by retention policy, plus the resident-memory gauges
// behind the per-shard byte caps.
func (m *Metrics) writeFlight(e *expoWriter, s flight.MetricsSnapshot) {
	e.family("vqoe_flight_recorded_sessions_total", "Closed sessions that ran the flight recorder's tail-sampling decision.", "counter")
	e.printf("vqoe_flight_recorded_sessions_total %d\n", s.Recorded)
	e.family("vqoe_flight_retained_sessions_total", "Sessions whose full timeline was retained.", "counter")
	e.printf("vqoe_flight_retained_sessions_total %d\n", s.Retained)

	e.family("vqoe_flight_retained_by_reason_total", "Retention decisions per tail-sampling policy (one session may count under several).", "counter")
	reasons := make([]string, 0, len(s.ByReason))
	for r := range s.ByReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		e.printf("vqoe_flight_retained_by_reason_total{reason=%q} %d\n", r, s.ByReason[r])
	}

	e.family("vqoe_flight_resident_sessions", "Retained sessions currently resident in the rings.", "gauge")
	e.printf("vqoe_flight_resident_sessions %d\n", s.Resident)
	e.family("vqoe_flight_retained_bytes", "Estimated bytes held by resident timelines.", "gauge")
	e.printf("vqoe_flight_retained_bytes %d\n", s.Bytes)
	e.family("vqoe_flight_capacity_bytes", "Configured byte budget across all shards.", "gauge")
	e.printf("vqoe_flight_capacity_bytes %d\n", s.CapacityBytes)
	e.family("vqoe_flight_evicted_sessions_total", "Retained sessions evicted oldest-first by the byte budget.", "counter")
	e.printf("vqoe_flight_evicted_sessions_total %d\n", s.Evicted)
	e.family("vqoe_flight_truncated_events_total", "Chunk events dropped by the per-session timeline cap.", "counter")
	e.printf("vqoe_flight_truncated_events_total %d\n", s.TruncatedEvents)
}

// writeAlerts renders the SLO alert families. Rows arrive sorted by
// rule; every rule pre-declares all four destination states in the
// transition counter (sorted by label value) so series never appear
// mid-flight and repeated renders of an idle manager are
// byte-identical.
func (m *Metrics) writeAlerts(e *expoWriter, rows []slo.StateRow) {
	if len(rows) == 0 {
		return
	}
	e.family("vqoe_alert_state", "Alert state per SLO rule (0=inactive, 1=pending, 2=firing, 3=resolved).", "gauge")
	for _, r := range rows {
		e.printf("vqoe_alert_state{rule=%q} %d\n", r.Rule, r.State)
	}
	// destination states in sorted label order
	dests := []slo.State{slo.Firing, slo.Inactive, slo.Pending, slo.Resolved}
	e.family("vqoe_alert_transitions_total", "Alert state transitions per SLO rule, by destination state.", "counter")
	for _, r := range rows {
		for _, d := range dests {
			e.printf("vqoe_alert_transitions_total{rule=%q,to=%q} %d\n", r.Rule, d.String(), r.Transitions[d])
		}
	}
}

// sortedIdx returns the index permutation that visits names in sorted
// order (quality families carry variable class sets, unlike the fixed
// [3]int64 arrays sortedByLabel serves).
func sortedIdx(names []string) []int {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return names[idx[i]] < names[idx[j]] })
	return idx
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
