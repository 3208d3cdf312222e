package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/flight"
	"vqoe/internal/mos"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/slo"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
)

// Server exposes the framework over HTTP for operator integration:
//
//	POST /analyze  — body: weblog entries as JSONL (one session's
//	                 traffic); response: the QoE assessment as JSON.
//	POST /ingest   — body: JSONL entries appended to the live
//	                 engine; response: reports for any sessions the
//	                 new entries completed. Lines with "type":"label"
//	                 are demuxed onto the ground-truth side-channel.
//	POST /labels   — body: JSONL ground-truth labels for the
//	                 model-quality monitor (delayed label
//	                 side-channel); response: accept/match counts.
//	GET  /metrics  — Prometheus exposition of everything assessed:
//	                 per-shard engine gauges, stage-latency
//	                 histograms, and runtime introspection.
//	GET  /healthz  — liveness.
//	GET  /debug/sessions — live per-shard open-session snapshot.
//	GET  /debug/quality  — model-quality health: per-feature PSI vs
//	                       the training baseline, prediction priors,
//	                       calibration, online accuracy, degradation
//	                       verdicts.
//	GET  /debug/cohorts  — fleet rollup: per-cohort exact MOS
//	                       quantiles and impairment rates, worst
//	                       cohorts first.
//	GET  /debug/trace    — session-lifecycle ring as Chrome
//	                       trace_event JSON (load in chrome://tracing
//	                       or Perfetto).
//	GET  /debug/flight   — tail-sampled session flight-recorder index,
//	                       worst sessions first.
//	GET  /debug/flight/{subscriber}/{session} — one retained session's
//	                       full event timeline; ?format=trace renders
//	                       it as Chrome trace_event JSON.
//	GET  /debug/sessions/{subscriber} — one subscriber's open sessions
//	                       (404 when none are open).
//	GET  /debug/timeseries — sparkline-ready metric history: the SLO
//	                       sampler's per-series rings with min/max/avg
//	                       roll-ups (?n= caps returned points).
//	GET  /debug/alerts   — SLO alert states, worst first: firing and
//	                       pending rules plus recently resolved ones.
//	GET  /debug/pprof/   — net/http/pprof, only with Options.Pprof.
//
// Server is safe for concurrent use. /ingest routes through the
// sharded live-session engine, so concurrent requests for different
// subscribers proceed in parallel; /analyze runs the offline reference
// (features.FromEntries → Framework.Analyze) directly, since the
// request carries one complete session and there is no flow state to
// track. An /analyze session is not a live one: it counts in no
// vqoe_sessions_* family, no model-quality sample and no cohort, and
// the "type":"label" lines of an /analyze body are skipped — a label
// there could only match a live session of the same subscriber. Call
// Drain before shutdown to flush sessions still open in the engine.
type Server struct {
	fw      *core.Framework
	metrics *Metrics
	eng     *engine.Engine
	obs     *obs.Observer
	flight  *flight.Recorder
	slo     *slo.Engine
	opts    Options

	wireOnce sync.Once
	wire     *wire.Server
}

// Options tunes the server beyond the engine layout.
type Options struct {
	// Engine configures the live engine behind /ingest. Engine.Obs is
	// overwritten: the server always builds its own observer so
	// /metrics and the debug endpoints have a source.
	Engine engine.Config
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose process internals and cost CPU while running.
	Pprof bool
	// TraceCap is the per-shard lifecycle trace ring capacity
	// (obs.DefaultTraceCap when <= 0).
	TraceCap int
	// Logger, when set, enables structured request logging and panic
	// recovery on every endpoint plus per-shard drain/eviction logs in
	// the engine.
	Logger *slog.Logger
	// Quality tunes the model-quality monitor's degradation thresholds
	// (zero fields take qualitymon defaults). The monitor itself is
	// always on: every shard feeds it, /debug/quality reports it, and
	// /metrics exports it.
	Quality qualitymon.Thresholds
	// OnReport, when set, receives every completed session report the
	// engine produces outside an /ingest request — the wire listener,
	// capture loops, auto-eviction, and Drain. Called from engine
	// shard goroutines; must be safe for concurrent use.
	OnReport func(SessionReport)
	// CohortMax caps the fleet-rollup cohort cardinality (LRU eviction
	// into an overflow bucket past it; cohort.DefaultMaxCohorts when
	// <= 0). The rollup itself is always on: every shard feeds it,
	// /debug/cohorts reports it, and /metrics exports vqoe_cohort_*.
	CohortMax int
	// Flight tunes the session flight recorder (tail-sampled
	// per-session timelines behind /debug/flight, exemplar links in
	// /debug/cohorts and /debug/quality, vqoe_flight_* metrics). Zero
	// fields take flight defaults; Shards is overwritten with the
	// engine's shard count; set Disabled to turn recording off
	// entirely (zero hot-path cost).
	Flight flight.Config
	// SLO sets the cadence and clock of the metric-history sampler and
	// alert rule engine behind /debug/timeseries and /debug/alerts (zero
	// fields take slo defaults: 1s cadence, wall clock; the objectives
	// are slo constants). The subsystem is always on — it reads counters
	// the pipeline already maintains, so its steady-state cost is one
	// snapshot sweep per cadence tick, nothing on the ingest hot path.
	SLO slo.Config
}

// NewServer wraps a trained framework with the default engine layout
// (one shard per CPU).
func NewServer(fw *core.Framework) *Server {
	return NewServerOpts(fw, Options{Engine: engine.DefaultConfig()})
}

// NewServerOpts wraps a trained framework with full control over the
// observability surface. Each monitored subsystem is wired into
// /metrics, the SLO sampler and the alert rules by its one telemetry
// call below.
func NewServerOpts(fw *core.Framework, opts Options) *Server {
	s := &Server{fw: fw, metrics: NewMetrics(), opts: opts}
	ecfg := opts.Engine.WithDefaults()
	s.obs = obs.NewObserver(ecfg.Shards, opts.TraceCap)
	s.obs.SetLogger(opts.Logger)
	ecfg.Obs = s.obs
	qm := core.NewQualityMonitor(fw, ecfg.Shards, opts.Quality)
	ecfg.Quality = qm
	ecfg.Cohorts = cohort.NewRollup(cohort.Config{Shards: ecfg.Shards, MaxCohorts: opts.CohortMax})
	fcfg := opts.Flight
	fcfg.Shards = ecfg.Shards
	rec := flight.New(fcfg) // nil when opts.Flight.Disabled
	ecfg.Flight = rec
	s.flight = rec
	if rec != nil {
		wireFlightQuality(qm, rec)
	}
	s.eng = engine.New(fw, ecfg, opts.OnReport)
	s.slo = slo.New(opts.SLO)
	engineTelemetry(s.metrics, s.slo, s.eng)
	stageTelemetry(s.metrics, s.slo, s.obs.StageSnapshots)
	qualityTelemetry(s.metrics, s.slo, qm)
	cohortTelemetry(s.metrics, s.slo, ecfg.Cohorts)
	flightTelemetry(s.metrics, s.slo, rec)
	alertTelemetry(s.metrics, s.slo)
	s.slo.Start()
	return s
}

// wireFlightQuality connects the model-quality monitor to the flight
// recorder: mispredicted labels promote the retained session
// (labeled_wrong, and an exemplar of the model it got wrong) with a
// note naming both classes. Both arguments must be non-nil.
func wireFlightQuality(qm *qualitymon.Monitor, rec *flight.Recorder) {
	qm.SetOutcomeHook(func(o qualitymon.Outcome) {
		if !o.StallCorrect {
			rec.ObserveOutcome(o.Prediction.Subscriber, o.Prediction.Start, o.Prediction.End,
				"stall", "predicted "+className(features.StallLabelNames, o.Prediction.Stall)+
					", labeled "+className(features.StallLabelNames, o.Label.Stall))
		}
		if !o.RepCorrect {
			rec.ObserveOutcome(o.Prediction.Subscriber, o.Prediction.Start, o.Prediction.End,
				"rep", "predicted "+className(features.RepLabelNames, o.Prediction.Rep)+
					", labeled "+className(features.RepLabelNames, o.Label.Rep))
		}
	})
}

// className renders a model class index through its schema, falling
// back to the bare index for out-of-range values (future schemas).
func className(names []string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return "class " + strconv.Itoa(i)
}

// Flight exposes the session flight recorder (nil when disabled).
func (s *Server) Flight() *flight.Recorder { return s.flight }

// SLO exposes the metric-history sampler and alert engine (for tests
// and embedders that drive a Manual clock or read the closing states).
func (s *Server) SLO() *slo.Engine { return s.slo }

// Metrics exposes the collector (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Engine exposes the live engine behind /ingest (for embedding and
// capture loops that Feed it directly).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Drain flushes the engine's open sessions for graceful shutdown and
// returns their final reports (also handed to Options.OnReport). It also
// stops the SLO sampler and ticks it once more on its own clock, so the
// alert states count the flush and then freeze for the closing summary.
func (s *Server) Drain() []SessionReport {
	s.slo.Close()
	reports := s.eng.Drain()
	if s.opts.OnReport != nil {
		for _, rep := range reports {
			s.opts.OnReport(rep)
		}
	}
	s.slo.Tick(s.slo.Now())
	return reports
}

// NewWireServer returns the binary ingest listener wired into this
// server's engine, logger and telemetry (vqoe_wire_* families, wire.*
// series, the wire-errors rule), with per-connection stage timings on.
// A server has one: the first call builds and attaches it, later calls
// return the same listener, so /metrics and the SLO sampler can never
// watch different ones — Serve it on as many sockets as needed. Its
// connections decode frames straight into the engine (the fused door: the
// engine is the RecSink and counts what it takes); labels go to the quality
// monitor. The caller Serves listeners on goroutines and Closes it before Drain.
func (s *Server) NewWireServer() *wire.Server {
	s.wireOnce.Do(func() {
		s.wire = wire.NewServer(wire.Config{
			Handler: wire.Handler{Recs: s.eng, Labels: func(labels []qualitymon.Label) {
				for i := range labels {
					s.eng.ObserveLabel(labels[i])
				}
			}},
			Logger: s.opts.Logger,
			Stages: true,
		})
		wireTelemetry(s.metrics, s.slo, s.wire)
	})
	return s.wire
}

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /labels", s.handleLabels)
	mux.HandleFunc("GET /debug/quality", s.handleDebugQuality)
	mux.HandleFunc("GET /debug/cohorts", s.handleDebugCohorts)
	mux.Handle("/metrics", s.metrics.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /debug/sessions", s.handleDebugSessions)
	mux.HandleFunc("GET /debug/sessions/{subscriber}", s.handleDebugSessionsSubscriber)
	mux.HandleFunc("GET /debug/flight", s.handleDebugFlight)
	mux.HandleFunc("GET /debug/flight/{subscriber}/{session}", s.handleDebugFlightSession)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/timeseries", s.handleDebugTimeseries)
	mux.HandleFunc("GET /debug/alerts", s.handleDebugAlerts)
	if s.opts.Pprof {
		obs.RegisterPprof(mux)
	}
	return obs.HTTPMiddleware(s.opts.Logger, mux)
}

// DebugSessionsResponse is the JSON shape of /debug/sessions: every
// shard's live flow-table view.
type DebugSessionsResponse struct {
	Shards []engine.ShardSessions `json:"shards"`
	Open   int                    `json:"open"`
}

func (s *Server) handleDebugSessions(w http.ResponseWriter, r *http.Request) {
	resp := DebugSessionsResponse{Shards: s.eng.OpenSessions()}
	for _, sh := range resp.Shards {
		resp.Open += len(sh.Sessions)
	}
	writeJSON(w, resp)
}

// DebugSubscriberSessions is the JSON shape of
// /debug/sessions/{subscriber}: one subscriber's open sessions across
// all shards.
type DebugSubscriberSessions struct {
	Subscriber string                    `json:"subscriber"`
	Sessions   []sessionizer.OpenSession `json:"sessions"`
}

func (s *Server) handleDebugSessionsSubscriber(w http.ResponseWriter, r *http.Request) {
	sub := r.PathValue("subscriber")
	resp := DebugSubscriberSessions{Subscriber: sub}
	for _, sh := range s.eng.OpenSessions() {
		for _, sess := range sh.Sessions {
			if sess.Subscriber == sub {
				resp.Sessions = append(resp.Sessions, sess)
			}
		}
	}
	if len(resp.Sessions) == 0 {
		writeJSONError(w, http.StatusNotFound, "no open sessions for subscriber "+sub)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	// nil-safe: with recording disabled this serves an empty index
	writeJSON(w, s.flight.Snapshot())
}

func (s *Server) handleDebugFlightSession(w http.ResponseWriter, r *http.Request) {
	sub := r.PathValue("subscriber")
	sessKey := r.PathValue("session")
	start, err := strconv.ParseFloat(sessKey, 64)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest,
			"session must be the numeric start time from the flight index id")
		return
	}
	if r.URL.Query().Get("format") == "trace" {
		evs := s.flight.ChromeTrace(sub, start)
		if evs == nil {
			writeJSONError(w, http.StatusNotFound, "no retained flight session "+sub+"/"+sessKey)
			return
		}
		setJSONHeaders(w)
		_ = obs.WriteChromeEvents(w, evs)
		return
	}
	sess := s.flight.Get(sub, start)
	if sess == nil {
		writeJSONError(w, http.StatusNotFound, "no retained flight session "+sub+"/"+sessKey)
		return
	}
	writeJSON(w, sess)
}

// defaultTimeseriesPoints caps /debug/timeseries responses unless the
// caller asks for more (?n=0 returns everything retained).
const defaultTimeseriesPoints = 240

func (s *Server) handleDebugTimeseries(w http.ResponseWriter, r *http.Request) {
	n := defaultTimeseriesPoints
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSONError(w, http.StatusBadRequest, "n must be a non-negative integer (0 = all retained points)")
			return
		}
		n = v
	}
	writeJSON(w, s.slo.Timeseries(n))
}

func (s *Server) handleDebugAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.slo.Alerts())
}

// handleDebugQuality serves the quality snapshot with each degraded
// model linked to its exemplar sessions: one flight-recorder read, made
// only when a model is degraded and recording is on.
func (s *Server) handleDebugQuality(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Quality().Snapshot()
	if snap.Degraded {
		ex := s.flight.Exemplars()
		for i := range snap.Models {
			if m := &snap.Models[i]; m.Degraded {
				m.Exemplars = ex["model/"+m.Name]
			}
		}
	}
	writeJSON(w, snap)
}

// handleDebugCohorts serves the fleet rollup with every cohort row
// linked to its exemplar sessions: one flight-recorder read per request,
// none when recording is off.
func (s *Server) handleDebugCohorts(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Cohorts().Snapshot()
	if ex := s.flight.Exemplars(); ex != nil {
		for i := range snap.Cohorts {
			snap.Cohorts[i].Exemplars = ex[snap.Cohorts[i].Cohort]
		}
	}
	writeJSON(w, snap)
}

// LabelsResponse is the JSON shape of /labels results.
type LabelsResponse struct {
	Accepted int `json:"accepted"`
	Matched  int `json:"matched"`
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	var resp LabelsResponse
	err := eachJSONLLine(r, func(b []byte) error {
		var l qualitymon.Label
		if err := json.Unmarshal(b, &l); err != nil {
			return err
		}
		resp.Accepted++
		if s.eng.ObserveLabel(l) {
			resp.Matched++
		}
		return nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	setJSONHeaders(w)
	_ = obs.WriteChromeTrace(w, s.obs.TraceEvents())
}

// AnalyzeResponse is the JSON shape of /analyze results. The
// confidence fields are each forest's winning-class vote share.
type AnalyzeResponse struct {
	Stalling          string  `json:"stalling"`
	StallConfidence   float64 `json:"stall_confidence"`
	Quality           string  `json:"quality"`
	QualityConfidence float64 `json:"quality_confidence"`
	SwitchVariance    bool    `json:"switch_variance"`
	SwitchScore       float64 `json:"switch_score"`
	Chunks            int     `json:"chunks"`
	MOS               float64 `json:"mos"`
	MOSVerbal         string  `json:"mos_verbal"`
}

func toResponse(r core.Report) AnalyzeResponse {
	score := mos.FromReport(r)
	return AnalyzeResponse{
		Stalling:          r.Stall.String(),
		StallConfidence:   r.StallConf,
		Quality:           r.Representation.String(),
		QualityConfidence: r.RepConf,
		SwitchVariance:    r.SwitchVariance,
		SwitchScore:       r.SwitchScore,
		Chunks:            r.Chunks,
		MOS:               float64(score),
		MOSVerbal:         score.Verbal(),
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	entries, _, err := decodeJSONL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	obs := features.FromEntries(entries)
	if obs.Len() == 0 {
		http.Error(w, "no media chunks in request", http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, toResponse(s.fw.Analyze(obs)))
}

// IngestResponse is the JSON shape of /ingest results. Accepted, Dropped
// (?mode=shed requests that actually shed) and Rejected (lines the
// admission rule refused) are the engine's tally of the request's entry
// lines and sum to them. The label fields appear when the request
// carried "type":"label" lines.
type IngestResponse struct {
	Accepted       int            `json:"accepted"`
	Dropped        int            `json:"dropped,omitempty"`
	Rejected       int            `json:"rejected,omitempty"`
	Reports        []IngestReport `json:"reports"`
	LabelsAccepted int            `json:"labels_accepted,omitempty"`
	LabelsMatched  int            `json:"labels_matched,omitempty"`
}

// IngestReport is one completed session in an ingest response.
type IngestReport struct {
	Subscriber string          `json:"subscriber"`
	Start      float64         `json:"start"`
	End        float64         `json:"end"`
	Assessment AnalyzeResponse `json:"assessment"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	entries, labels, err := decodeJSONL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := IngestResponse{Reports: []IngestReport{}}
	resp.LabelsAccepted = len(labels)
	var took engine.Tally
	switch r.URL.Query().Get("mode") {
	case "", "sync":
		var reports []SessionReport
		reports, took = s.eng.Ingest(entries)
		for _, rep := range reports {
			resp.Reports = append(resp.Reports, IngestReport{
				Subscriber: rep.Subscriber,
				Start:      rep.Start,
				End:        rep.End,
				Assessment: toResponse(rep.Report),
			})
		}
	case "shed":
		// best-effort delivery: full mailboxes shed their slice of the
		// batch instead of blocking the client (the drop-rate SLO rule
		// watches exactly this counter). Reports for completed sessions
		// flow through the async report path, not this response.
		took = s.eng.Offer(entries)
	default:
		writeJSONError(w, http.StatusBadRequest, "unknown mode (want sync or shed)")
		return
	}
	resp.Accepted, resp.Dropped, resp.Rejected = took.Accepted, took.Dropped, took.Rejected
	// labels observe after ingest so a request carrying a session and
	// its own label can still match
	for _, l := range labels {
		if s.eng.ObserveLabel(l) {
			resp.LabelsMatched++
		}
	}
	writeJSON(w, resp)
}

// maxBodyLines bounds a single request's entry count.
const maxBodyLines = 1_000_000

// eachJSONLLine is the one reader of a JSONL request body: it hands fn
// every non-blank line of at most 1 MiB, in order, and refuses a body
// of more than maxBodyLines lines (blank ones count). It stops at fn's
// first error and returns it as "line N: ...", N counted from 1.
func eachJSONLLine(r *http.Request, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if line > maxBodyLines {
			return fmt.Errorf("request exceeds %d lines", maxBodyLines)
		}
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
	}
	return sc.Err()
}

// decodeJSONL splits a JSONL body into weblog entries and any
// interleaved ground-truth labels (lines with "type":"label").
func decodeJSONL(r *http.Request) ([]weblog.Entry, []qualitymon.Label, error) {
	var out []weblog.Entry
	var labels []qualitymon.Label
	err := eachJSONLLine(r, func(b []byte) error {
		if l, isLabel, err := qualitymon.ParseLabelLine(b); isLabel {
			if err != nil {
				return err
			}
			labels = append(labels, l)
			return nil
		}
		var e weblog.Entry
		if err := json.Unmarshal(b, &e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, labels, nil
}

// setJSONHeaders marks a response as JSON and uncacheable. Every JSON
// endpoint is a live snapshot — a cached /debug/alerts or /debug/
// sessions body is worse than none, so the whole debug API opts out of
// intermediary and browser caches.
func setJSONHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
}

func writeJSON(w http.ResponseWriter, v any) {
	setJSONHeaders(w)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONError mirrors writeJSON for error responses so the debug
// API speaks JSON consistently (404s included) instead of http.Error's
// text/plain.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	setJSONHeaders(w)
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
