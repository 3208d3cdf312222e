// Command qoepcap bridges the framework and standard capture tooling:
//
//	qoepcap -export capture.pcap [-sessions 20]   synthesize an
//	  encrypted study and write it as a header-only libpcap capture
//	  (opens in tcpdump/Wireshark);
//
//	qoepcap -analyze capture.pcap [-hosts map.txt]   run the passive
//	  measurement chain on a capture: flow metering → session
//	  reconstruction → QoE reports. The session flight recorder rides
//	  along: sessions kept by a retention policy (stalled, worst MOS
//	  decile, low confidence, uniform sample) close the run with a
//	  "worst sessions" report; -flight-sample tunes the uniform
//	  sample, -no-flight disables recording. The SLO rules run too,
//	  in capture time: the engine ticks once per -slo-cadence seconds
//	  of capture, so a silent gap in the trace raises ingest-stale
//	  exactly as it would have live; -alert-log appends the
//	  transitions (timestamps are capture seconds) as JSON lines.
//
//	qoepcap -replay capture.pcap -wire 127.0.0.1:9090   stream the
//	  capture through the incremental flow meter and push the
//	  synthesized entries to a qoeserve wire listener as transactions
//	  complete — a passive probe feeding the live engine.
//
// A hosts file ("ip host" per line) restores server names for captures
// whose DNS/SNI context is external; -export writes one next to the
// capture automatically.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
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
		trainN     = flag.Int("train-n", 800, "training corpus size for -analyze")
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
		if err := doAnalyze(*analyze, *hosts, *trainN, *seed, *flightN, *noFlight, *alertLog, *sloCadence); err != nil {
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

func doAnalyze(path, hostsPath string, trainN int, seed int64, flightN int, noFlight bool, alertLog string, sloCadence float64) error {
	r, err := openCapture(path, hostsPath)
	if err != nil {
		return err
	}
	defer r.Close()

	pkts, err := r.ReadAll()
	if err != nil {
		return err
	}
	entries := packet.MeterEntries(pkts)
	fmt.Printf("metered %d transactions from %d packets\n\n", len(entries), len(pkts))

	// train and assess
	fmt.Fprintln(os.Stderr, "training framework...")
	clearCfg := workload.DefaultConfig(trainN)
	clearCfg.Seed = seed + 1
	hasCfg := workload.DefaultConfig(trainN / 2)
	hasCfg.AdaptiveFraction = 1
	hasCfg.Seed = seed + 2
	tcfg := core.DefaultTrainConfig()
	tcfg.CVFolds = 3
	tcfg.Forest.Trees = 30
	fw, _, err := core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), tcfg)
	if err != nil {
		return err
	}

	rec := flight.New(flight.Config{Shards: 1, SampleN: flightN, Disabled: noFlight})
	ob := obs.NewObserver(1, 0)

	// offline SLO pass: a manually-ticked engine whose clock is the
	// capture's own timestamps, so staleness and latency rules judge
	// the trace exactly as they would have judged the live stream
	if sloCadence <= 0 {
		sloCadence = 1
	}
	capNow := 0.0
	scfg := slo.Config{Manual: true, CadenceSec: sloCadence, Now: func() float64 { return capNow }}
	if alertLog != "" {
		lf, err := os.OpenFile(alertLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer lf.Close()
		scfg.AlertLog = lf
	}
	sloEng := slo.New(scfg)

	// stream through the live engine at one shard, one entry per call,
	// so the flight recorder sees the capture exactly as a deployment
	// would; sweeps are off — sessions close on §5.2 boundaries and at
	// end of capture
	eng := engine.New(fw, engine.Config{Shards: 1, SweepEverySec: -1, Obs: ob, Flight: rec}, nil)
	// the engine's own count: Ingest is synchronous, so a tick reads what was pushed
	pipeline.EntriesTelemetry(sloEng, func() int64 { return eng.Snapshot()[0].Events }, nil)
	pipeline.StageTelemetry(nil, sloEng, ob.StageSnapshots)
	pipeline.FlightTelemetry(nil, sloEng, rec)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Timestamp < entries[j].Timestamp })
	n := 0
	emit := func(reports []engine.Report) {
		for _, rep := range reports {
			n++
			fmt.Printf("session %2d  t=%8.1fs  %s\n", n, rep.Start, rep.Report)
		}
	}
	if len(entries) > 0 {
		capNow = entries[0].Timestamp
	}
	nextTick := capNow + sloCadence
	for _, e := range entries {
		for e.Timestamp >= nextTick {
			capNow = nextTick
			sloEng.Tick(capNow)
			nextTick += sloCadence
		}
		if e.Timestamp > capNow {
			capNow = e.Timestamp
		}
		reports, _ := eng.Ingest([]weblog.Entry{e})
		emit(reports)
	}
	emit(eng.Drain())
	sloEng.Tick(capNow)
	fmt.Printf("\n%d sessions assessed\n", n)

	alerts := sloEng.Alerts()
	if alerts.Firing > 0 || alerts.Pending > 0 || len(alerts.RecentResolved) > 0 {
		fmt.Printf("\nslo alerts over the capture (%d firing, %d pending at end):\n",
			alerts.Firing, alerts.Pending)
		for _, a := range alerts.Alerts {
			if a.StateCode == int(slo.Inactive) {
				continue
			}
			fmt.Printf("  %-20s %-8s %s\n", a.Rule, a.State, a.Detail)
		}
		for _, ep := range alerts.RecentResolved {
			fmt.Printf("  resolved %-11s t=%.0fs..%.0fs  %s\n",
				ep.Rule, ep.StartedAt, ep.ResolvedAt, ep.Detail)
		}
	}

	if rec != nil {
		if snap := rec.Snapshot(); len(snap.Retained) > 0 {
			fmt.Printf("\nworst sessions (%d retained of %d recorded):\n",
				snap.Counters.Retained, snap.Counters.Recorded)
			worst := snap.Retained
			if len(worst) > 5 {
				worst = worst[:5]
			}
			for _, s := range worst {
				fmt.Printf("  %-28s mos %.2f (%s)  stall %-13s kept: %s\n",
					s.ID, s.MOS, s.Verbal, s.Stall, strings.Join(s.Reasons, ","))
			}
		}
	}
	return nil
}

// doReplay streams a capture through the incremental flow meter and
// pushes the synthesized entries over the wire protocol as
// transactions complete, finishing with a sync barrier so the printed
// ack count proves server-side delivery.
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
	var sendErr error
	st, err := wire.ReplayPcap(r, func(entries []weblog.Entry) {
		if sendErr == nil {
			sendErr = c.SendEntries(entries)
		}
	}, wire.ReplayOptions{})
	if err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	ack, err := c.Sync()
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d packets → %d entries in %d batches (%.1fs capture span); server acked %d entries\n",
		st.Packets, st.Entries, st.Batches, st.SpanSec, ack.Entries)
	return nil
}
