// Command qoewatch is the operator's live monitor: it reads a weblog
// stream (JSONL, one entry per line — the format cmd/qoegen emits) from
// stdin, reconstructs sessions on the fly and prints a QoE report the
// moment each session completes.
//
// Models are loaded from files written by qoetrain, or trained on a
// synthetic corpus at startup when no files are given.
//
//	qoegen -kind encrypted -n 50 -format jsonl | qoewatch
//	qoewatch -stall stall.model -rep rep.model < weblog.jsonl
//
// With -metrics-addr the same Prometheus exposition qoeserve offers is
// served for this process — qoewatch runs qoeserve's engine at one
// shard, so every family is there: vqoe_engine_shard_* and
// vqoe_stage_duration_seconds (as shard 0), model quality, cohorts,
// flight recorder, alerts.
//
// The stream may interleave {"type":"label",...} lines (the delayed
// ground-truth side-channel qoegen -label-rate emits); qoewatch feeds
// them to the model-quality monitor and closes with a model-health
// summary — feature drift vs the training baseline, calibration, and
// online accuracy — flagging any tripped degradation threshold.
//
// When entries carry cohort metadata (region/device/cap, as qoegen
// -kind live emits), the run also closes with a "worst cohorts" fleet
// summary: the five cohorts with the lowest median MOS, with their
// impairment rates — the same rollup qoeserve serves at /debug/cohorts.
//
// The session flight recorder rides along: sessions that stall,
// score in the worst MOS decile, confuse a detector, or land on the
// uniform 1-in-N sample keep their full event timeline, and the run
// closes with a "worst sessions" report naming them. -flight-sample
// and -flight-max-bytes tune it; -no-flight turns it off.
//
// The SLO alert rules run over the same stream (-slo-cadence seconds
// per sampler tick) and the run closes with an alert summary — rules
// that fired or were pending, and episodes that resolved mid-run.
// -alert-log appends each state transition as a JSON line to a file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/pipeline"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/weblog"
)

func main() {
	var (
		stallPath = flag.String("stall", "", "trained stall model (from qoetrain -save-stall)")
		repPath   = flag.String("rep", "", "trained representation model (from qoetrain -save-rep)")
		trainN    = flag.Int("train-n", 800, "synthetic training size when no model files are given")
		seed      = flag.Int64("seed", 1, "training seed")
		quietOK   = flag.Bool("problems-only", false, "print only sessions with QoE issues")
		metricsAt = flag.String("metrics-addr", "", "serve Prometheus metrics on this address (e.g. 127.0.0.1:9090)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")

		flightN     = flag.Int("flight-sample", 0, "flight recorder uniform sample: retain 1 in N sessions (0 = default 32, negative = outcome-driven policies only)")
		flightBytes = flag.Int64("flight-max-bytes", 0, "flight recorder byte budget for retained timelines (0 = default 8MiB)")
		noFlight    = flag.Bool("no-flight", false, "disable the session flight recorder")
		alertLog    = flag.String("alert-log", "", "append one JSON line per SLO alert state transition to this file")
		sloCadence  = flag.Float64("slo-cadence", 0, "SLO sampler period in seconds (0 = default 1)")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qoewatch:", err)
		os.Exit(1)
	}

	var fw *core.Framework
	if *stallPath != "" && *repPath != "" {
		fw, err = core.LoadFramework(*stallPath, *repPath)
	} else {
		log.Info("no model files given; training on synthetic corpus", "sessions", *trainN)
		fw, err = core.TrainServingFramework(*trainN, *seed)
	}
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}

	// the same server qoeserve runs, at one shard: a single flow table
	// fed one entry per call, so each report prints the moment its
	// session closes; sweeps are off because stdin has no live clock —
	// sessions close on §5.2 boundaries and at end of stream
	opts := pipeline.Options{
		Engine: engine.Config{Shards: 1, SweepEverySec: -1},
		Logger: log,
		Flight: flight.Config{SampleN: *flightN, MaxBytes: *flightBytes, Disabled: *noFlight},
		SLO:    slo.Config{CadenceSec: *sloCadence},
	}
	if *alertLog != "" {
		f, err := os.OpenFile(*alertLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Error("alert log open failed", "path", *alertLog, "err", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.SLO.AlertLog = f
	}
	srv := pipeline.NewServerOpts(fw, opts)
	if *metricsAt != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAt, obs.HTTPMiddleware(log, mux)); err != nil {
				log.Error("metrics server failed", "err", err)
			}
		}()
		log.Info("serving metrics", "addr", *metricsAt)
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var lines, emitted, labels int
	for in.Scan() {
		if len(in.Bytes()) == 0 {
			continue
		}
		if l, isLabel, err := qualitymon.ParseLabelLine(in.Bytes()); isLabel {
			if err != nil {
				log.Warn("skipping malformed label line", "err", err)
				continue
			}
			labels++
			srv.Engine().ObserveLabel(l)
			continue
		}
		var e weblog.Entry
		if err := json.Unmarshal(in.Bytes(), &e); err != nil {
			log.Warn("skipping malformed line", "line", lines+1, "err", err)
			continue
		}
		lines++
		reports, _ := srv.Ingest([]weblog.Entry{e})
		for _, rep := range reports {
			emitted += printReport(out, rep, *quietOK)
		}
	}
	if err := in.Err(); err != nil && err != io.EOF {
		log.Error("read failed", "err", err)
		os.Exit(1)
	}
	// Drain stops the background SLO sampler before it flushes; one
	// final tick then picks up the flush before the summary reads the
	// alert table
	for _, rep := range srv.Drain() {
		emitted += printReport(out, rep, *quietOK)
	}
	srv.SLO().Tick(srv.SLO().Now())
	sn := srv.Engine().Quality().Snapshot()
	fmt.Fprintf(out, "-- %d entries, %d session reports\n", lines, emitted)
	if labels > 0 {
		// matched from the monitor, not ObserveLabel's return: a label
		// that arrives before its session closes is buffered and only
		// matches when the prediction lands (possibly at Drain)
		fmt.Fprintf(out, "-- %d ground-truth labels, %d matched\n", labels, sn.Labels.Matched)
	}
	printModelHealth(out, sn)
	printWorstCohorts(out, srv.Engine().Cohorts().Snapshot())
	printWorstSessions(out, srv.Flight())
	printAlertSummary(out, srv.SLO().Alerts())
	log.Debug("stream finished", "entries", lines, "reports", emitted, "labels", labels)
}

// printModelHealth renders the closing model-health summary: one line
// per classifier plus one per tripped degradation threshold.
func printModelHealth(w io.Writer, sn qualitymon.Snapshot) {
	for _, ms := range sn.Models {
		fmt.Fprintf(w, "-- model %s: %s", ms.Name, ms.Status)
		if ms.HasBaseline && ms.Samples > 0 {
			fmt.Fprintf(w, " (max PSI %.3f on %s", ms.MaxPSI, ms.MaxPSIFeature)
			if ms.Labeled > 0 {
				fmt.Fprintf(w, ", online accuracy %.1f%% over %d labels vs %.1f%% baseline",
					100*ms.OnlineAccuracy, ms.Labeled, 100*ms.BaselineAccuracy)
			}
			fmt.Fprint(w, ")")
		}
		fmt.Fprintln(w)
		for _, r := range ms.Reasons {
			fmt.Fprintf(w, "--   degraded: %s\n", r)
		}
	}
}

// printWorstCohorts closes the run with the fleet view an operator
// pages on: up to five cohorts, worst median MOS first. Streams
// without cohort metadata produce an empty rollup and no output.
func printWorstCohorts(w io.Writer, snap *cohort.Snapshot) {
	if snap == nil || len(snap.Cohorts) == 0 {
		return
	}
	show := snap.Cohorts
	if len(show) > 5 {
		show = show[:5]
	}
	fmt.Fprintf(w, "-- worst cohorts (%d sessions across %d cohorts):\n", snap.Total, len(snap.Cohorts))
	for _, st := range show {
		fmt.Fprintf(w, "--   %-24s mos p50 %.2f (%s)  sessions %-5d stall %.0f%% lowq %.0f%% switch %.0f%%\n",
			st.Cohort, st.MOSP50, st.Verbal, st.Sessions,
			100*st.StallRate, 100*st.LowQualityRate, 100*st.SwitchRate)
	}
	if snap.Overflow != nil {
		fmt.Fprintf(w, "--   (+%d sessions in evicted-cohort overflow)\n", snap.Overflow.Sessions)
	}
}

// printWorstSessions closes the run with the flight recorder's view:
// up to five retained sessions, worst MOS first, with the policies
// that kept them — the per-session evidence behind the cohort lines
// above. No output when recording is off or nothing was retained.
func printWorstSessions(w io.Writer, rec *flight.Recorder) {
	snap := rec.Snapshot()
	if len(snap.Retained) == 0 {
		return
	}
	fmt.Fprintf(w, "-- worst sessions (%d retained of %d recorded):\n",
		snap.Counters.Retained, snap.Counters.Recorded)
	show := snap.Retained
	if len(show) > 5 {
		show = show[:5]
	}
	for _, s := range show {
		fmt.Fprintf(w, "--   %-28s mos %.2f (%s)  stall %-13s entries %-4d kept: %s\n",
			s.ID, s.MOS, s.Verbal, s.Stall, s.Entries, strings.Join(s.Reasons, ","))
	}
}

// printAlertSummary closes the run with the SLO alert view: every
// rule that is not quietly inactive, worst state first, plus the
// firing episodes that resolved during the run. A healthy stream
// prints a single all-clear line.
func printAlertSummary(w io.Writer, snap slo.AlertsSnapshot) {
	var noisy []slo.Alert
	for _, a := range snap.Alerts {
		if a.StateCode != int(slo.Inactive) {
			noisy = append(noisy, a)
		}
	}
	if len(noisy) == 0 && len(snap.RecentResolved) == 0 {
		fmt.Fprintf(w, "-- slo: all %d alert rules inactive\n", len(snap.Alerts))
		return
	}
	fmt.Fprintf(w, "-- slo alerts (%d firing, %d pending):\n", snap.Firing, snap.Pending)
	for _, a := range noisy {
		fmt.Fprintf(w, "--   %-20s %-8s", a.Rule, a.State)
		if a.Value != nil {
			fmt.Fprintf(w, " value %.4g", *a.Value)
		}
		if a.Detail != "" {
			fmt.Fprintf(w, "  %s", a.Detail)
		}
		fmt.Fprintln(w)
	}
	for _, ep := range snap.RecentResolved {
		fmt.Fprintf(w, "--   resolved %-11s fired %.0fs, peak %.4g  %s\n",
			ep.Rule, ep.ResolvedAt-ep.StartedAt, ep.PeakValue, ep.Detail)
	}
}

func printReport(w io.Writer, rep pipeline.SessionReport, problemsOnly bool) int {
	problem := rep.Report.Stall != 0 || rep.Report.SwitchVariance
	if problemsOnly && !problem {
		return 0
	}
	marker := " "
	if problem {
		marker = "!"
	}
	fmt.Fprintf(w, "%s %-12s t=%8.1fs dur=%6.1fs  %s\n",
		marker, rep.Subscriber, rep.Start, rep.End-rep.Start, rep.Report)
	return 1
}
