// Command qoepcap bridges the framework and standard capture tooling:
//
//	qoepcap -export capture.pcap [-sessions 20]   synthesize an
//	  encrypted study and write it as a header-only libpcap capture
//	  (opens in tcpdump/Wireshark);
//
//	qoepcap -analyze capture.pcap [-hosts map.txt] [-stall S -rep R]
//	  run the passive measurement chain on a capture: flow metering →
//	  session reconstruction → QoE reports, through the server qoeserve
//	  runs (pipeline.Server, at one shard with sweeps off) and the
//	  framework it would serve (core.ServingFramework): the model files
//	  qoereport -save-stall/-save-rep write when both are given, else
//	  the models trained on -train-n synthetic sessions with -seed,
//	  exactly those qoeserve trains with the same two flags. The
//	  session flight recorder rides along: sessions kept by a retention
//	  policy (stalled, worst MOS decile, low confidence, uniform sample)
//	  close the run with a "worst sessions" report; -flight-sample tunes
//	  the uniform sample, -no-flight disables recording. The server's
//	  SLO rule set runs too — the same eight rules a -replay into
//	  qoeserve meets — in capture time: the SLO engine ticks once per
//	  -slo-cadence seconds of capture, so a silent gap in the trace
//	  raises ingest-stale exactly as it would have live; -alert-log
//	  appends the transitions (timestamps are capture seconds) as JSON
//	  lines.
//
//	qoepcap -replay capture.pcap -wire 127.0.0.1:9090   push the
//	  synthesized entries to a qoeserve wire listener as they are
//	  metered — a passive probe feeding the live engine.
//
// Both -analyze and -replay run one loop (stream.go): the capture is
// read packet by packet through the incremental flow meter, which
// hands out entries in start order while it reads, so memory is
// bounded by the open flows rather than the capture length, and the
// two modes see the same entries in the same order.
//
// A hosts file ("ip host" per line) restores server names for captures
// whose DNS/SNI context is external; -export writes one next to the
// capture automatically.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/pipeline"
	"vqoe/internal/slo"
	"vqoe/internal/stats"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

func main() {
	var (
		export     = flag.String("export", "", "write a synthetic capture to this pcap file")
		analyze    = flag.String("analyze", "", "analyze this pcap file")
		replay     = flag.String("replay", "", "stream this pcap's metered entries to a wire listener")
		wireAddr   = flag.String("wire", "127.0.0.1:9090", "wire listener address for -replay (host:port or unix:/path)")
		hosts      = flag.String("hosts", "", "ip→host map file for -analyze/-replay")
		sessions   = flag.Int("sessions", 20, "sessions to synthesize for -export")
		seed       = flag.Int64("seed", 1, "seed")
		stallPath  = flag.String("stall", "", "trained stall model for -analyze (with -rep)")
		repPath    = flag.String("rep", "", "trained representation model for -analyze (with -stall)")
		trainN     = flag.Int("train-n", 800, "synthetic training size for -analyze when no models given")
		flightN    = flag.Int("flight-sample", 0, "flight recorder uniform sample for -analyze: retain 1 in N sessions (0 = default 32, negative = outcome-driven policies only)")
		noFlight   = flag.Bool("no-flight", false, "disable the session flight recorder for -analyze")
		alertLog   = flag.String("alert-log", "", "append SLO alert transitions (capture-time) from -analyze as JSON lines to this file")
		sloCadence = flag.Float64("slo-cadence", 0, "capture-time seconds per SLO tick for -analyze (0 = default 1)")
	)
	flag.Parse()

	switch {
	case *export != "":
		if err := doExport(*export, *sessions, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "qoepcap:", err)
			os.Exit(1)
		}
	case *analyze != "":
		if *stallPath == "" && *repPath == "" {
			fmt.Fprintln(os.Stderr, "training framework...")
		}
		fw, err := core.ServingFramework(*stallPath, *repPath, *trainN, *seed)
		if err == nil {
			err = doAnalyze(fw, *analyze, *hosts, *flightN, *noFlight, *alertLog, *sloCadence)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qoepcap:", err)
			os.Exit(1)
		}
	case *replay != "":
		if err := doReplay(*replay, *hosts, *wireAddr); err != nil {
			fmt.Fprintln(os.Stderr, "qoepcap:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doExport(path string, sessions int, seed int64) error {
	cfg := workload.DefaultStudyConfig()
	cfg.Sessions = sessions
	cfg.Seed = seed
	study := workload.GenerateStudy(cfg)
	pkts := packet.Synthesize(study.Stream, stats.NewRand(seed))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := pcapio.NewWriter(f, time.Now())
	if err != nil {
		return err
	}
	if err := w.WriteAll(pkts); err != nil {
		return err
	}

	// companion host map so -analyze can restore server names
	hf, err := os.Create(path + ".hosts")
	if err != nil {
		return err
	}
	defer hf.Close()
	seen := map[string]bool{}
	for _, e := range study.Stream {
		if !seen[e.ServerIP] {
			seen[e.ServerIP] = true
			fmt.Fprintf(hf, "%s %s\n", e.ServerIP, e.Host)
		}
	}
	fmt.Printf("wrote %d packets (%d sessions) to %s (+ %s.hosts)\n",
		len(pkts), sessions, path, path)
	return nil
}

// openCapture opens a pcap reader with server names restored from the
// hosts file (default: the companion <path>.hosts -export writes).
func openCapture(path, hostsPath string) (*pcapio.Reader, error) {
	r, err := pcapio.Open(path, hostsPath)
	if err == nil && r.Hosts() == 0 {
		fmt.Fprintln(os.Stderr, "qoepcap: no host map; media-host detection will fail")
	}
	return r, err
}

func doAnalyze(fw *core.Framework, path, hostsPath string, flightN int, noFlight bool, alertLog string, sloCadence float64) error {
	r, err := openCapture(path, hostsPath)
	if err != nil {
		return err
	}
	defer r.Close()

	// the server qoeserve runs, at one shard with sweeps off — sessions
	// close on §5.2 boundaries and at end of capture — with its SLO
	// engine ticked by hand on the capture's own timestamps, so every
	// rule judges the trace exactly as it would have judged the live
	// stream
	if sloCadence <= 0 {
		sloCadence = 1
	}
	capNow := 0.0
	opts := pipeline.Options{
		Engine: engine.Config{Shards: 1, SweepEverySec: -1},
		Flight: flight.Config{SampleN: flightN, Disabled: noFlight},
		SLO:    slo.Config{Manual: true, CadenceSec: sloCadence, Now: func() float64 { return capNow }},
	}
	if alertLog != "" {
		lf, err := os.OpenFile(alertLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer lf.Close()
		opts.SLO.AlertLog = lf
	}
	srv := pipeline.NewServerOpts(fw, opts)
	n := 0
	emit := func(reports []pipeline.SessionReport) {
		for _, rep := range reports {
			n++
			fmt.Printf("session %2d  t=%8.1fs  %s\n", n, rep.Start, rep.Report)
		}
	}
	started := false
	var nextTick float64
	// one entry per call, in the start order the capture loop releases
	// them, so the engine and the flight recorder see the capture
	// exactly as a deployment would
	st, err := streamCapture(r, func(entries []weblog.Entry) error {
		for i, e := range entries {
			if !started {
				started = true
				capNow = e.Timestamp
				nextTick = capNow + sloCadence
			}
			for e.Timestamp >= nextTick {
				capNow = nextTick
				srv.SLO().Tick(capNow)
				nextTick += sloCadence
			}
			if e.Timestamp > capNow {
				capNow = e.Timestamp
			}
			reports, _ := srv.Engine().Ingest(entries[i : i+1])
			emit(reports)
		}
		return nil
	}, streamIdleGapSec, streamBatchMax)
	if err != nil {
		return err
	}
	emit(srv.Drain())
	fmt.Printf("\nmetered %d transactions from %d packets\n", st.Entries, st.Packets)
	fmt.Printf("%d sessions assessed\n\n", n)
	srv.Flight().Snapshot().WriteWorst(os.Stdout)
	srv.SLO().Alerts().WriteSummary(os.Stdout)
	return nil
}

// doReplay streams a capture through the capture loop and pushes the
// synthesized entries over the wire protocol as the meter releases
// them, stopping at the first send error, and finishes with a sync
// barrier so the printed ack count proves server-side delivery.
func doReplay(path, hostsPath, addr string) error {
	r, err := openCapture(path, hostsPath)
	if err != nil {
		return err
	}
	defer r.Close()

	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := streamCapture(r, c.SendEntries, streamIdleGapSec, streamBatchMax)
	if err != nil {
		return err
	}
	ack, err := c.Sync()
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d packets → %d entries in %d batches (%.1fs capture span); server acked %d entries\n",
		st.Packets, st.Entries, st.Batches, st.SpanSec, ack.Entries)
	return nil
}
