package pipeline

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vqoe/internal/cohort"
	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/wire"
)

// One function per monitored subsystem, and each is the only place
// that subsystem's telemetry is declared: it takes the source,
// registers the collector that renders its vqoe_* families on m, takes
// the one per-tick snapshot the SLO sampler reads, and adds the history
// series and the alert rules built on them. A source that is off (nil)
// is checked once, at the top. To monitor something new, write one more
// function here and call it once where the source is built.
//
// m may be nil when the caller serves no /metrics (qoepcap -analyze).
// Collectors render in registration order; series registered after the
// sampler started backfill as missing samples.

// EngineTelemetry declares the sharded engine, the one place an entry is
// counted: vqoe_entries_total (what the shards took, through any door),
// vqoe_ingest_rejected_total (what the admission rule refused), the
// interner's and the per-shard vqoe_engine_* families, the ingest/session/
// mailbox/interner series, and the drop-rate, mailbox-saturation,
// ingest-stale and shard-wedged rules.
func EngineTelemetry(m *Metrics, se *slo.Engine, eng *engine.Engine) {
	m.collect(func(e *expoWriter) {
		stats := eng.Snapshot()
		var events int64
		for _, s := range stats {
			events += s.Events
		}
		e.family("vqoe_entries_total", "Weblog entries processed.", "counter")
		e.printf("vqoe_entries_total %d\n", events)
		e.family("vqoe_ingest_rejected_total", "Entries refused by the admission rule (non-finite or negative fields), by reason.", "counter")
		for why, n := range eng.Rejected() {
			e.printf("vqoe_ingest_rejected_total{reason=%q} %d\n", engine.RejectReasons[why], n)
		}
		subscribers, _, internerBytes := eng.InternerStats()
		e.family("vqoe_engine_interned_subscribers", "Subscribers the engine has interned since start; none is ever forgotten.", "gauge")
		e.printf("vqoe_engine_interned_subscribers %d\n", subscribers)
		e.family("vqoe_engine_interner_bytes", "Memory the interner holds: subscriber index, id tables and name blocks.", "gauge")
		e.printf("vqoe_engine_interner_bytes %d\n", internerBytes)
		// grouped by family, not by shard: the text format requires all
		// samples of a family to be contiguous
		for _, fam := range []struct {
			name, help, typ string
			value           func(engine.ShardStats) int64
		}{
			{"vqoe_engine_shard_open_sessions", "Sessions tracked per shard.", "gauge",
				func(s engine.ShardStats) int64 { return int64(s.Open) }},
			{"vqoe_engine_shard_flow_store_bytes", "Memory the shard's flow store holds for open sessions' chunks.", "gauge",
				func(s engine.ShardStats) int64 { return int64(s.StoreBytes) }},
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
		} {
			e.family(fam.name, fam.help, fam.typ)
			for _, s := range stats {
				e.printf("%s{shard=\"%d\"} %d\n", fam.name, s.Shard, fam.value(s))
			}
		}
	})

	h, o := se.History(), se.Objectives()
	// aggregate across shards, rebuilt once per tick
	type totals struct {
		events, dropped, rejected, reports, evicted int64
		open, wedged                                int
		maxMailboxUtil                              float64
		lastWorkSec                                 float64 // newest shard tap, unix seconds (0 = none)
	}
	var cur totals
	h.Prelude(func() {
		now := se.Now()
		mailboxCap := eng.MailboxCap()
		cur = totals{}
		for _, n := range eng.Rejected() {
			cur.rejected += n
		}
		for _, sh := range eng.Snapshot() {
			cur.events += sh.Events
			cur.dropped += sh.Dropped
			cur.reports += sh.Reports
			cur.evicted += sh.Evicted
			cur.open += sh.Open
			if mailboxCap > 0 {
				if u := float64(sh.Mailbox) / float64(mailboxCap); u > cur.maxMailboxUtil {
					cur.maxMailboxUtil = u
				}
			}
			tap := float64(sh.LastWorkUnixNano) / 1e9
			if tap > cur.lastWorkSec {
				cur.lastWorkSec = tap
			}
			if sh.Mailbox > 0 && sh.LastWorkUnixNano > 0 && now-tap > o.StaleAfterSec {
				cur.wedged++
			}
		}
	})
	EntriesTelemetry(se, func() int64 { return cur.events }, func() float64 { return cur.lastWorkSec })
	dropped := h.AddCounter("ingest.dropped", func() float64 { return float64(cur.dropped) })
	h.AddCounter("ingest.rejected", func() float64 { return float64(cur.rejected) })
	offered := h.AddCounter("ingest.offered", func() float64 { return float64(cur.events + cur.dropped + cur.rejected) })
	h.AddCounter("sessions.reports", func() float64 { return float64(cur.reports) })
	h.AddCounter("sessions.evicted", func() float64 { return float64(cur.evicted) })
	h.AddGauge("engine.open_sessions", func() float64 { return float64(cur.open) })
	h.AddGauge("engine.interner_bytes", func() float64 { _, _, b := eng.InternerStats(); return float64(b) })
	mailboxUtil := h.AddGauge("engine.mailbox_util", func() float64 { return cur.maxMailboxUtil })
	h.AddGauge("engine.wedged_shards", func() float64 { return float64(cur.wedged) })

	se.AddRule(slo.BurnRateRule("drop-rate",
		"Ingest load-shed rate burning the drop error budget on both the fast and slow windows.",
		dropped, offered, o.DropRateMax, o))
	se.AddRule(slo.GaugeAboveRule("mailbox-saturation",
		"Worst shard mailbox utilisation near capacity: ingest is about to block or shed.",
		mailboxUtil, o.MailboxUtilMax, o.FastWindowSec, o))
	se.AddRule(slo.Rule{
		Name: "shard-wedged",
		Help: "A shard has queued work but its worker has not finished a message within the staleness budget.",
		Eval: func(_ *slo.History, _ float64) (float64, bool, string) {
			n := cur.wedged
			return float64(n), n > 0, fmt.Sprintf("%d shard(s) with queued mail and no recent work", n)
		},
	})
}

// EntriesTelemetry declares ingest progress from a processed-entry
// counter: the throughput series, the freshness gauge and the
// ingest-stale rule. EngineTelemetry calls it with the shard taps;
// qoepcap -analyze calls it directly with lastWorkSec nil, because it
// ticks on the capture clock, where the shards' wall-clock liveness
// taps mean nothing.
func EntriesTelemetry(se *slo.Engine, entries func() int64, lastWorkSec func() float64) {
	h, o := se.History(), se.Objectives()
	// the counter and the history-clock time it last moved: engines
	// without an observer take no wall-clock taps, the counter still
	// moves
	var events, lastChangeSec float64
	h.Prelude(func() {
		if v := float64(entries()); v != events {
			events, lastChangeSec = v, se.Now()
		}
	})
	h.AddCounter("ingest.entries", func() float64 { return events })
	// Freshness: seconds since the pipeline last made progress — the
	// newer of the shard wall-clock tap and the counter-change clock.
	// NaN until the first entry ever arrives (a service that has not
	// been fed is idle, not wedged).
	ingestAge := h.AddGauge("fresh.ingest_age_seconds", func() float64 {
		last := 0.0
		if lastWorkSec != nil {
			last = lastWorkSec()
		}
		if events > 0 && lastChangeSec > last {
			last = lastChangeSec
		}
		if last == 0 {
			return math.NaN()
		}
		return se.Now() - last
	})
	se.AddRule(slo.StaleRule("ingest-stale",
		"No entry has been processed for longer than the staleness budget: wedged listener or silent upstream.",
		ingestAge, o.StaleAfterSec, o))
}

// StageTelemetry declares the per-shard stage-latency histograms: the
// vqoe_stage_duration_seconds family (stage and shard labels), the
// merged ingest-stage history and the ingest-latency-p99 rule.
func StageTelemetry(m *Metrics, se *slo.Engine, stages func() []obs.StageSetSnapshot) {
	m.collect(func(e *expoWriter) {
		const name = "vqoe_stage_duration_seconds"
		e.family(name, "Pipeline stage latency per engine shard.", "histogram")
		for shard, snap := range stages() {
			for _, st := range obs.Stages() {
				e.histogram(name, fmt.Sprintf("stage=%q,shard=\"%d\"", st.String(), shard), snap[st])
			}
		}
	})

	o := se.Objectives()
	ingestHist := se.History().AddHistogram("stage.ingest", func() obs.HistogramSnapshot {
		var merged obs.HistogramSnapshot
		for _, snap := range stages() {
			merged.Merge(snap[obs.StageIngest])
		}
		return merged
	})
	se.AddRule(slo.QuantileAboveRule("ingest-latency-p99",
		"Ingest stage p99 latency over the latency window above objective.",
		ingestHist, 0.99, o.LatencyP99MaxSec, o.LatencyWindowSec, o))
}

// qualityTelemetry declares the model-quality monitor: the
// vqoe_model_* and vqoe_quality_labels_* families, the label/drift
// series and the model-degraded rule. No-op when the monitor is off.
func qualityTelemetry(m *Metrics, se *slo.Engine, qm *qualitymon.Monitor) {
	if qm == nil {
		return
	}
	// Families that would be empty are suppressed entirely (a
	// declared-but-sampleless family is legal but useless; the baseline
	// families are simply absent when no model carries a baseline).
	m.collect(func(e *expoWriter) {
		q := qm.Snapshot()
		if len(q.Models) == 0 {
			return
		}
		e.family("vqoe_model_predictions_total", "Sessions assessed per model, by predicted class.", "counter")
		for _, ms := range q.Models {
			// quality families carry variable class sets, unlike the
			// fixed [3]int64 arrays sortedByLabel serves
			idx := make([]int, len(ms.Classes))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(i, j int) bool { return ms.Classes[idx[i]] < ms.Classes[idx[j]] })
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
	})

	h := se.History()
	var cur qualitymon.Snapshot
	h.Prelude(func() { cur = qm.Snapshot() })
	// degraded counts the models past a degradation threshold and
	// renders them with their reasons, sorted, for the alert detail
	degraded := func() (int, string) {
		var parts []string
		for _, ms := range cur.Models {
			if ms.Degraded {
				parts = append(parts, ms.Name+" ("+strings.Join(ms.Reasons, ", ")+")")
			}
		}
		if len(parts) == 0 {
			return 0, "all models healthy"
		}
		sort.Strings(parts)
		return len(parts), "degraded: " + strings.Join(parts, "; ")
	}
	// worst returns the largest value of one per-model statistic
	worst := func(stat func(qualitymon.ModelSnapshot) float64) float64 {
		if len(cur.Models) == 0 {
			return math.NaN()
		}
		w := math.Inf(-1)
		for _, ms := range cur.Models {
			if v := stat(ms); v > w {
				w = v
			}
		}
		return w
	}
	h.AddCounter("labels.total", func() float64 { return float64(cur.Labels.Total) })
	h.AddGauge("model.degraded_models", func() float64 { n, _ := degraded(); return float64(n) })
	h.AddGauge("model.max_psi", func() float64 {
		return worst(func(ms qualitymon.ModelSnapshot) float64 { return ms.MaxPSI })
	})
	h.AddGauge("model.max_ece", func() float64 {
		return worst(func(ms qualitymon.ModelSnapshot) float64 { return ms.ECE })
	})
	h.AddGauge("fresh.label_age_seconds", func() float64 {
		return ageSince(se, qm.LastLabelUnixNano())
	})

	se.AddRule(slo.Rule{
		Name: "model-degraded",
		Help: "A model trips its degradation thresholds (feature/prior PSI, calibration, accuracy drop) sustained over the for-duration.",
		Eval: func(_ *slo.History, _ float64) (float64, bool, string) {
			n, detail := degraded()
			return float64(n), n > 0, detail
		},
	})
}

// cohortTelemetry declares the fleet rollup: the vqoe_cohort_*
// families, the worst-cohort and session-freshness series and the
// cohort-mos-floor rule. The cohort label space is hard-bounded: the
// rollup caps distinct cohorts and folds evictions into a single
// "overflow" series.
func cohortTelemetry(m *Metrics, se *slo.Engine, rollup *cohort.Rollup) {
	// label values are emitted in sorted order so the exposition is
	// deterministic for a given rollup state; suppressed entirely
	// before the first session
	m.collect(func(e *expoWriter) {
		snap := rollup.Snapshot()
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
	})

	h, o := se.History(), se.Objectives()
	var cur *cohort.Snapshot
	h.Prelude(func() { cur = rollup.Snapshot() })
	worstP50 := h.AddGauge("cohort.worst_p50_mos", func() float64 {
		if cur == nil || len(cur.Cohorts) == 0 {
			return math.NaN()
		}
		// the rollup snapshot is sorted worst-p50-first
		return cur.Cohorts[0].MOSP50
	})
	h.AddGauge("fresh.session_age_seconds", func() float64 {
		return ageSince(se, rollup.LastObserveUnixNano())
	})
	se.AddRule(slo.GaugeBelowRule("cohort-mos-floor",
		"Worst cohort's median MOS below the experience floor.",
		worstP50, o.MOSFloor, o.FastWindowSec, o))
}

// FlightTelemetry declares the session flight recorder: the
// vqoe_flight_* families (sampling counters split by retention policy,
// the resident-memory gauges behind the per-shard byte caps), the
// eviction and occupancy series and the flight-pressure rule. No-op
// when recording is off.
func FlightTelemetry(m *Metrics, se *slo.Engine, rec *flight.Recorder) {
	if rec == nil {
		return
	}
	m.collect(func(e *expoWriter) {
		s := rec.Metrics()
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
	})

	h, o := se.History(), se.Objectives()
	var cur flight.MetricsSnapshot
	h.Prelude(func() { cur = rec.Metrics() })
	evicted := h.AddCounter("flight.evicted", func() float64 { return float64(cur.Evicted) })
	h.AddGauge("flight.bytes_util", func() float64 {
		if cur.CapacityBytes == 0 {
			return 0
		}
		return float64(cur.Bytes) / float64(cur.CapacityBytes)
	})
	se.AddRule(slo.RateAboveRule("flight-pressure",
		"Flight-recorder ring evicting retained sessions faster than the objective: exemplars vanish before an operator can read them.",
		evicted, o.FlightEvictPerSec, o.FastWindowSec, o))
}

// wireTelemetry declares the binary-ingest listener: the vqoe_wire_*
// connection and protocol-volume families plus the merged
// per-connection stage histogram (only when stage timing was enabled
// on the listener), the frame/error series and the wire-errors burn
// rule. /metrics and the sampler read the same listener because this
// one call attaches both.
func wireTelemetry(m *Metrics, se *slo.Engine, ws *wire.Server) {
	m.collect(func(e *expoWriter) {
		s := ws.Snapshot()
		for _, fam := range []struct {
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
		} {
			e.family(fam.name, fam.help, fam.typ)
			e.printf("%s %d\n", fam.name, fam.value)
		}
		if s.Stages[obs.StageWireDecode].Count == 0 && s.Stages[obs.StageIngest].Count == 0 {
			return
		}
		const name = "vqoe_wire_stage_duration_seconds"
		e.family(name, "Wire listener stage latency, merged over connections.", "histogram")
		for _, st := range []obs.Stage{obs.StageWireDecode, obs.StageIngest} {
			e.histogram(name, fmt.Sprintf("stage=%q", st.String()), s.Stages[st])
		}
	})

	h, o := se.History(), se.Objectives()
	var cur wire.Snapshot
	h.Prelude(func() { cur = ws.Snapshot() })
	h.AddCounter("wire.frames", func() float64 { return float64(cur.Frames) })
	errs := h.AddCounter("wire.errors", func() float64 { return float64(cur.Errors) })
	ops := h.AddCounter("wire.ops", func() float64 { return float64(cur.Frames + cur.Errors) })
	h.AddGauge("wire.conns_active", func() float64 { return float64(cur.ConnsActive) })
	se.AddRule(slo.BurnRateRule("wire-errors",
		"Wire decode/CRC/transport faults per delivered frame burning the error budget on both windows.",
		errs, ops, o.WireErrorRateMax, o))
}

// alertTelemetry declares the alert state machine itself: the
// vqoe_alert_* families over every rule the functions above added.
// Rows arrive sorted by rule; every rule pre-declares all four
// destination states in the transition counter (sorted by label value)
// so series never appear mid-flight and repeated renders of an idle
// manager are byte-identical.
func alertTelemetry(m *Metrics, se *slo.Engine) {
	m.collect(func(e *expoWriter) {
		rows := se.StateRows()
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
	})
}

// ageSince renders a wall-clock tap as seconds before the SLO clock;
// NaN (missing) until the tap has ever fired.
func ageSince(se *slo.Engine, unixNano int64) float64 {
	if unixNano == 0 {
		return math.NaN()
	}
	return se.Now() - float64(unixNano)/1e9
}
