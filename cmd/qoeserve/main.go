// Command qoeserve runs the detection framework as an HTTP service for
// operator integration:
//
//	POST /analyze        one session's weblog entries (JSONL) → assessment
//	POST /ingest         streaming entries → reports for completed
//	                     sessions; ?mode=shed delivers best-effort
//	                     (full mailboxes shed instead of blocking)
//	GET  /metrics        Prometheus exposition: QoE aggregates, per-shard
//	                     engine gauges, stage-latency histograms, runtime
//	GET  /healthz        liveness
//	POST /labels         delayed ground-truth labels (JSONL) for the
//	                     model-quality monitor
//	GET  /debug/sessions live per-shard open-session snapshot
//	GET  /debug/quality  model-quality health: feature drift (PSI),
//	                     calibration, online accuracy, degradation flags
//	GET  /debug/cohorts  fleet rollup: per-cohort (region/device/cap)
//	                     session counts, streaming MOS quantiles, and
//	                     impairment rates, worst cohort first; -cohort-max
//	                     caps the tracked-cohort cardinality
//	GET  /debug/trace    session lifecycle as Chrome trace JSON
//	GET  /debug/flight   session flight recorder: tail-sampled
//	                     per-session timelines, worst sessions first;
//	                     /debug/flight/{subscriber}/{session} serves one
//	                     retained timeline (?format=trace for Chrome
//	                     trace JSON). -flight-sample and
//	                     -flight-max-bytes tune it; -flight-sample -1
//	                     with no other policy change disables only the
//	                     uniform sample, -no-flight turns the recorder
//	                     off entirely.
//	GET  /debug/timeseries sparkline-ready metric history: the SLO
//	                     sampler's per-series rings (rate-converted
//	                     counters, gauges, histogram quantiles); ?n=
//	                     caps the points returned (default 240)
//	GET  /debug/alerts   SLO alert table: firing/pending alerts
//	                     worst-first plus recently resolved ones, with
//	                     burn values and detail lines
//	GET  /debug/pprof/   net/http/pprof (only with -pprof)
//
// Models are loaded from files written by qoetrain, or trained on a
// synthetic corpus at startup.
//
//	qoeserve -addr :8080 -stall stall.model -rep rep.model
//
// The /ingest path runs on the sharded live-session engine; -shards
// and -mailbox size it. Logs are structured (log/slog); -log-level
// and -log-format tune them, and every request is logged with status
// and duration. On SIGINT/SIGTERM the server stops accepting
// requests, drains the engine (flushing still-open sessions into the
// metrics), and exits.
//
// Beside the HTTP surface the binary ingest listener (internal/wire)
// accepts length-prefixed frames at a fraction of the JSONL cost:
//
//	qoeserve -wire 127.0.0.1:9090            TCP wire listener
//	qoeserve -wire-unix /tmp/vqoe.sock       UDS wire listener
//
// feed it with qoegen -kind live -wire, or qoepcap -replay. With
// -pcap the server itself replays a capture through the flow meter
// into the engine at startup (-pcap-hosts restores server names).
// Shutdown closes wire connections (with a drain grace) before the
// engine drain, so acked frames are always reflected in the flush.
//
// The SLO subsystem is always on: a background sampler (-slo-cadence
// seconds per tick) snapshots the in-process counters into metric
// history rings and runs the built-in alert rules over them.
// -alert-log appends one JSON line per alert state transition to a
// file; the drain log ends with an alert summary either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/pcapio"
	"vqoe/internal/pipeline"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		stallPath   = flag.String("stall", "", "trained stall model")
		repPath     = flag.String("rep", "", "trained representation model")
		trainN      = flag.Int("train-n", 800, "synthetic training size when no models given")
		seed        = flag.Int64("seed", 1, "training seed")
		shards      = flag.Int("shards", 0, "engine shard count (0 = one per CPU)")
		mailbox     = flag.Int("mailbox", 0, "per-shard mailbox depth (0 = default)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceCap    = flag.Int("trace-buf", 0, "per-shard lifecycle trace ring capacity (0 = default)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		cohortMax   = flag.Int("cohort-max", 0, "max distinct cohorts tracked by the fleet rollup before LRU eviction into the overflow bucket (0 = default 64)")
		psiMax      = flag.Float64("psi-threshold", 0, "PSI above which a feature (or the prediction prior) counts as drifted (0 = default 0.2)")
		accDrop     = flag.Float64("accuracy-drop", 0, "online-accuracy drop (fraction) that flags degradation (0 = default 0.05)")
		flightN     = flag.Int("flight-sample", 0, "flight recorder uniform sample: retain 1 in N sessions (0 = default 32, negative = outcome-driven policies only)")
		flightBytes = flag.Int64("flight-max-bytes", 0, "flight recorder per-shard byte budget for retained timelines (0 = default 8MiB)")
		noFlight    = flag.Bool("no-flight", false, "disable the session flight recorder entirely")
		wireAddr    = flag.String("wire", "", "binary ingest listener TCP address (e.g. 127.0.0.1:9090)")
		wireUnix    = flag.String("wire-unix", "", "binary ingest listener unix socket path")
		pcapPath    = flag.String("pcap", "", "replay this capture through the flow meter into the engine at startup")
		pcapHosts   = flag.String("pcap-hosts", "", "ip→host map for -pcap (default <pcap>.hosts)")
		alertLog    = flag.String("alert-log", "", "append one JSON line per alert state transition to this file")
		sloCadence  = flag.Float64("slo-cadence", 0, "SLO sampler period in seconds (0 = default 1)")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qoeserve:", err)
		os.Exit(1)
	}

	var fw *core.Framework
	if *stallPath != "" && *repPath != "" {
		fw, err = core.LoadFramework(*stallPath, *repPath)
	} else {
		log.Info("training on synthetic corpus", "sessions", *trainN)
		fw, err = core.TrainServingFramework(*trainN, *seed)
	}
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}
	ecfg := engine.DefaultConfig()
	if *shards > 0 {
		ecfg.Shards = *shards
	}
	if *mailbox > 0 {
		ecfg.Mailbox = *mailbox
	}
	var alertLogFile *os.File
	if *alertLog != "" {
		alertLogFile, err = os.OpenFile(*alertLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Error("alert log open failed", "path", *alertLog, "err", err)
			os.Exit(1)
		}
		defer alertLogFile.Close()
	}
	scfg := slo.Config{CadenceSec: *sloCadence}
	if alertLogFile != nil {
		scfg.AlertLog = alertLogFile
	}
	srv := pipeline.NewServerOpts(fw, pipeline.Options{
		Engine:    ecfg,
		Pprof:     *pprofOn,
		TraceCap:  *traceCap,
		Logger:    log,
		Quality:   qualitymon.Thresholds{PSI: *psiMax, AccuracyDrop: *accDrop},
		CohortMax: *cohortMax,
		Flight: flight.Config{
			SampleN:  *flightN,
			MaxBytes: *flightBytes,
			Disabled: *noFlight,
		},
		SLO: scfg,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	var ws *wire.Server
	if *wireAddr != "" || *wireUnix != "" {
		ws = srv.NewWireServer()
		wireAddrs := []string{}
		if *wireAddr != "" {
			wireAddrs = append(wireAddrs, *wireAddr)
		}
		if *wireUnix != "" {
			wireAddrs = append(wireAddrs, "unix:"+*wireUnix)
		}
		for _, a := range wireAddrs {
			ln, err := wire.Listen(a)
			if err != nil {
				log.Error("wire listen failed", "addr", a, "err", err)
				os.Exit(1)
			}
			go func(a string) {
				if err := ws.Serve(ln); err != nil {
					log.Error("wire serve failed", "addr", a, "err", err)
				}
			}(a)
			log.Info("wire listening", "addr", a)
		}
	}
	if *pcapPath != "" {
		go func() {
			// meter the capture (names from the hosts file) into the Entry door
			r, err := pcapio.Open(*pcapPath, *pcapHosts)
			var st wire.ReplayStats
			if err == nil {
				st, err = wire.ReplayPcap(r, srv.Engine().Feed, wire.ReplayOptions{})
				r.Close()
			}
			if err != nil {
				log.Error("pcap replay failed", "path", *pcapPath, "err", err)
				return
			}
			log.Info("pcap replayed", "path", *pcapPath, "packets", st.Packets,
				"entries", st.Entries, "batches", st.Batches, "span_sec", st.SpanSec)
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Info("draining")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if ws != nil {
			_ = ws.Close()
		}
		_ = httpSrv.Shutdown(ctx)
		flushed := srv.Drain()
		log.Info("drained", "flushed_sessions", len(flushed))
		alerts := srv.SLO().Alerts()
		log.Info("alerts", "firing", alerts.Firing, "pending", alerts.Pending,
			"recently_resolved", len(alerts.RecentResolved))
		for _, a := range alerts.Alerts {
			if a.State == "firing" || a.State == "pending" {
				v := 0.0
				if a.Value != nil {
					v = *a.Value
				}
				log.Warn("active alert", "rule", a.Rule, "state", a.State,
					"value", v, "detail", a.Detail)
			}
		}
		if fr := srv.Flight(); fr != nil {
			snap := fr.Snapshot()
			log.Info("flight recorder",
				"recorded", snap.Counters.Recorded, "retained", snap.Counters.Retained,
				"resident", snap.Counters.Resident, "evicted", snap.Counters.Evicted)
			worst := snap.Retained
			if len(worst) > 5 {
				worst = worst[:5]
			}
			for _, sess := range worst {
				log.Info("worst retained session", "id", sess.ID, "mos", sess.MOS,
					"verbal", sess.Verbal, "stall", sess.Stall,
					"reasons", strings.Join(sess.Reasons, ","))
			}
		}
	}()

	log.Info("listening", "addr", *addr, "shards", srv.Engine().Shards(), "pprof", *pprofOn)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
	<-done
}
