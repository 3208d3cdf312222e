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

// SLOParts names the in-process sources the built-in SLO rule set
// samples. Engine is nil when the SLO clock is not wall time (qoepcap
// -analyze ticks on the capture clock, where the shards' wall-clock
// liveness taps mean nothing); Entries then supplies the
// processed-entry counter for throughput and freshness. Any field may
// be nil/zero — the corresponding series and rules are simply not
// installed.
type SLOParts struct {
	Engine  *engine.Engine
	Entries func() int64
	Stages  func() []obs.StageSetSnapshot
	Quality *qualitymon.Monitor
	Cohorts *cohort.Rollup
	Flight  *flight.Recorder
}

// sloTick is the shared once-per-tick snapshot of every source; the
// series closures read from it so one Sample pays one snapshot per
// subsystem, not one per series.
type sloTick struct {
	// engine aggregate across shards
	events, dropped, reports, evicted int64
	open                              int
	maxMailboxUtil                    float64
	wedged                            int
	lastWorkSec                       float64 // newest shard tap, unix seconds (0 = none)

	quality qualitymon.Snapshot
	cohorts *cohort.Snapshot
	flight  flight.MetricsSnapshot

	// freshness change-detection fallback (engines without an observer
	// take no wall-clock taps; the entry counter still moves)
	lastEntries    float64
	lastChangeSec  float64 // history-clock time the counter last moved
	haveLastChange bool
}

// NewSLO builds an slo.Engine over the standard source set: the
// metric-history series every deployment gets, plus the built-in rules
// from the completed Objectives. The caller starts it (Start) and
// stops it (Close); wire sources attach later via AttachWireSLO.
func NewSLO(cfg slo.Config, p SLOParts) *slo.Engine {
	se := slo.New(cfg)
	h := se.History()
	o := se.Objectives()
	cur := &sloTick{}

	h.Prelude(func() {
		now := se.Now()
		if p.Engine != nil {
			cap := p.Engine.MailboxCap()
			cur.events, cur.dropped, cur.reports, cur.evicted = 0, 0, 0, 0
			cur.open, cur.wedged = 0, 0
			cur.maxMailboxUtil, cur.lastWorkSec = 0, 0
			for _, sh := range p.Engine.Snapshot() {
				cur.events += sh.Events
				cur.dropped += sh.Dropped
				cur.reports += sh.Reports
				cur.evicted += sh.Evicted
				cur.open += sh.Open
				if cap > 0 {
					if u := float64(sh.Mailbox) / float64(cap); u > cur.maxMailboxUtil {
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
		} else if p.Entries != nil {
			cur.events = p.Entries()
		}
		if entries := float64(cur.events); !cur.haveLastChange || entries != cur.lastEntries {
			cur.lastEntries = entries
			cur.lastChangeSec = now
			cur.haveLastChange = true
		}
		if p.Quality != nil {
			cur.quality = p.Quality.Snapshot()
		}
		if p.Cohorts != nil {
			cur.cohorts = p.Cohorts.Snapshot()
		}
		if p.Flight != nil {
			cur.flight = p.Flight.Metrics()
		}
	})

	h.AddCounter("ingest.entries", func() float64 { return float64(cur.events) })
	var dropped, offered *slo.Series
	if p.Engine != nil {
		dropped = h.AddCounter("ingest.dropped", func() float64 { return float64(cur.dropped) })
		offered = h.AddCounter("ingest.offered", func() float64 { return float64(cur.events + cur.dropped) })
		h.AddCounter("sessions.reports", func() float64 { return float64(cur.reports) })
		h.AddCounter("sessions.evicted", func() float64 { return float64(cur.evicted) })
		h.AddGauge("engine.open_sessions", func() float64 { return float64(cur.open) })
	}

	// Freshness: seconds since the pipeline last made progress — the
	// newer of the shard wall-clock tap and the counter-change clock.
	// NaN until the first entry ever arrives (a service that has not
	// been fed is idle, not wedged).
	ingestAge := h.AddGauge("fresh.ingest_age_seconds", func() float64 {
		now := se.Now()
		last := cur.lastWorkSec
		if cur.haveLastChange && cur.lastEntries > 0 && cur.lastChangeSec > last {
			last = cur.lastChangeSec
		}
		if last == 0 {
			return math.NaN()
		}
		return now - last
	})

	var mailboxUtil, wedgedShards *slo.Series
	if p.Engine != nil {
		mailboxUtil = h.AddGauge("engine.mailbox_util", func() float64 { return cur.maxMailboxUtil })
		wedgedShards = h.AddGauge("engine.wedged_shards", func() float64 { return float64(cur.wedged) })
	}

	var labelAge *slo.Series
	if p.Quality != nil {
		h.AddCounter("labels.total", func() float64 { return float64(cur.quality.Labels.Total) })
		h.AddGauge("model.degraded_models", func() float64 { return float64(degradedCount(cur.quality)) })
		h.AddGauge("model.max_psi", func() float64 {
			return maxModelStat(cur.quality, func(ms qualitymon.ModelSnapshot) float64 { return ms.MaxPSI })
		})
		h.AddGauge("model.max_ece", func() float64 {
			return maxModelStat(cur.quality, func(ms qualitymon.ModelSnapshot) float64 { return ms.ECE })
		})
		qm := p.Quality
		labelAge = h.AddGauge("fresh.label_age_seconds", func() float64 {
			n := qm.LastLabelUnixNano()
			if n == 0 {
				return math.NaN()
			}
			return se.Now() - float64(n)/1e9
		})
	}

	var worstP50 *slo.Series
	if p.Cohorts != nil {
		worstP50 = h.AddGauge("cohort.worst_p50_mos", func() float64 {
			if cur.cohorts == nil || len(cur.cohorts.Cohorts) == 0 {
				return math.NaN()
			}
			// the rollup snapshot is sorted worst-p50-first
			return cur.cohorts.Cohorts[0].MOSP50
		})
		rollup := p.Cohorts
		h.AddGauge("fresh.session_age_seconds", func() float64 {
			n := rollup.LastObserveUnixNano()
			if n == 0 {
				return math.NaN()
			}
			return se.Now() - float64(n)/1e9
		})
	}

	var flightEvicted *slo.Series
	if p.Flight != nil {
		flightEvicted = h.AddCounter("flight.evicted", func() float64 { return float64(cur.flight.Evicted) })
		h.AddGauge("flight.bytes_util", func() float64 {
			if cur.flight.CapacityBytes == 0 {
				return 0
			}
			return float64(cur.flight.Bytes) / float64(cur.flight.CapacityBytes)
		})
	}

	var ingestHist *slo.HistSeries
	if p.Stages != nil {
		stages := p.Stages
		ingestHist = h.AddHistogram("stage.ingest", func() obs.HistogramSnapshot {
			var merged obs.HistogramSnapshot
			for _, snap := range stages() {
				merged.Merge(snap[obs.StageIngest])
			}
			return merged
		})
	}

	// ---- built-in rules over the series above ----

	if dropped != nil {
		se.AddRule(slo.BurnRateRule("drop-rate",
			"Ingest load-shed rate burning the drop error budget on both the fast and slow windows.",
			dropped, offered, o.DropRateMax, o))
	}
	if mailboxUtil != nil {
		se.AddRule(slo.GaugeAboveRule("mailbox-saturation",
			"Worst shard mailbox utilisation near capacity: ingest is about to block or shed.",
			mailboxUtil, o.MailboxUtilMax, o.FastWindowSec, o))
	}
	if ingestHist != nil {
		se.AddRule(slo.QuantileAboveRule("ingest-latency-p99",
			"Ingest stage p99 latency over the latency window above objective.",
			ingestHist, 0.99, o.LatencyP99MaxSec, o.LatencyWindowSec, o))
	}
	if p.Quality != nil {
		se.AddRule(slo.Rule{
			Name: "model-degraded",
			Help: "A model trips its degradation thresholds (feature/prior PSI, calibration, accuracy drop) sustained over the for-duration.",
			Eval: func(_ *slo.History, _ float64) (float64, bool, string) {
				n := degradedCount(cur.quality)
				return float64(n), n > 0, degradedDetail(cur.quality)
			},
		})
	}
	if worstP50 != nil {
		se.AddRule(slo.GaugeBelowRule("cohort-mos-floor",
			"Worst cohort's median MOS below the experience floor.",
			worstP50, o.MOSFloor, o.FastWindowSec, o))
	}
	if flightEvicted != nil {
		se.AddRule(slo.RateAboveRule("flight-pressure",
			"Flight-recorder ring evicting retained sessions faster than the objective: exemplars vanish before an operator can read them.",
			flightEvicted, o.FlightEvictPerSec, o.FastWindowSec, o))
	}
	se.AddRule(slo.StaleRule("ingest-stale",
		"No entry has been processed for longer than the staleness budget: wedged listener or silent upstream.",
		ingestAge, o.StaleAfterSec, o))
	if wedgedShards != nil {
		se.AddRule(slo.Rule{
			Name: "shard-wedged",
			Help: "A shard has queued work but its worker has not finished a message within the staleness budget.",
			Eval: func(_ *slo.History, _ float64) (float64, bool, string) {
				n := cur.wedged
				return float64(n), n > 0, fmt.Sprintf("%d shard(s) with queued mail and no recent work", n)
			},
		})
	}
	if labelAge != nil && o.LabelStaleAfterSec > 0 {
		se.AddRule(slo.StaleRule("label-stale",
			"The ground-truth label side-channel has gone silent; online accuracy and calibration are going blind.",
			labelAge, o.LabelStaleAfterSec, o))
	}
	return se
}

// AttachWireSLO registers the binary listener's series and decode/CRC
// error burn rule on an existing SLO engine. Call it once, when the
// wire server is built (series registered mid-flight backfill as
// missing samples).
func AttachWireSLO(se *slo.Engine, ws *wire.Server) {
	h := se.History()
	o := se.Objectives()
	var snap wire.Snapshot
	h.Prelude(func() { snap = ws.Snapshot() })
	h.AddCounter("wire.frames", func() float64 { return float64(snap.Frames) })
	errs := h.AddCounter("wire.errors", func() float64 { return float64(snap.Errors) })
	ops := h.AddCounter("wire.ops", func() float64 { return float64(snap.Frames + snap.Errors) })
	h.AddGauge("wire.conns_active", func() float64 { return float64(snap.ConnsActive) })
	se.AddRule(slo.BurnRateRule("wire-errors",
		"Wire decode/CRC/transport faults per delivered frame burning the error budget on both windows.",
		errs, ops, o.WireErrorRateMax, o))
}

// degradedCount counts models currently past a degradation threshold.
func degradedCount(q qualitymon.Snapshot) int {
	n := 0
	for _, ms := range q.Models {
		if ms.Degraded {
			n++
		}
	}
	return n
}

// maxModelStat returns the worst value of one per-model statistic.
func maxModelStat(q qualitymon.Snapshot, f func(qualitymon.ModelSnapshot) float64) float64 {
	if len(q.Models) == 0 {
		return math.NaN()
	}
	worst := math.Inf(-1)
	for _, ms := range q.Models {
		if v := f(ms); v > worst {
			worst = v
		}
	}
	return worst
}

// degradedDetail renders the degraded models and their reasons,
// sorted, for the alert detail line.
func degradedDetail(q qualitymon.Snapshot) string {
	var parts []string
	for _, ms := range q.Models {
		if ms.Degraded {
			parts = append(parts, ms.Name+" ("+strings.Join(ms.Reasons, ", ")+")")
		}
	}
	if len(parts) == 0 {
		return "all models healthy"
	}
	sort.Strings(parts)
	return "degraded: " + strings.Join(parts, "; ")
}
