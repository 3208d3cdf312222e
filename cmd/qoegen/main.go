// Command qoegen generates the synthetic datasets as files, for
// inspection or for use outside this repository: per-session feature
// vectors with labels (CSV) or raw weblog entries (JSONL).
//
// Usage:
//
//	qoegen -kind cleartext -n 1000 -format csv  > sessions.csv
//	qoegen -kind encrypted -n 722 -format jsonl > weblog.jsonl
//	qoegen -kind has -n 500 -format csv -set rep > rep.csv
//
// The live kind is the concurrent load-generator workload: an
// interleaved, time-ordered encrypted weblog for many subscribers at
// once, ready to replay against qoeserve's /ingest:
//
//	qoegen -kind live -subscribers 200 -n 3 -format jsonl | \
//	    curl -s --data-binary @- http://127.0.0.1:8080/ingest
//
// With -label-rate the live stream also carries the delayed
// ground-truth side-channel: for that fraction of sessions a
// {"type":"label",...} line is interleaved at the (capture-clock) time
// the label would become available, so the model-quality monitor can
// measure online accuracy. -drift skews the population onto degraded
// network paths — a feature-drift scenario the monitor should flag.
//
// Live entries carry cohort metadata (region, device class, quality
// cap) for the fleet rollup. -hotspot degrades a single region's
// paths — the regional-outage scenario /debug/cohorts should surface
// — and -region-skew concentrates subscribers onto one region:
//
//	qoegen -kind live -subscribers 500 -n 2 -hotspot eu-west \
//	    -format jsonl | curl -s --data-binary @- http://127.0.0.1:8080/ingest
//
// With -wire the live stream bypasses JSON entirely and is pushed
// over the binary frame protocol to a qoeserve wire listener, ending
// with a sync barrier so the exit status reflects delivery:
//
//	qoegen -kind live -subscribers 200 -n 3 -wire 127.0.0.1:9090
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"vqoe/internal/features"
	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

func main() {
	var (
		kind        = flag.String("kind", "cleartext", "dataset kind: cleartext, has, encrypted, live")
		n           = flag.Int("n", 1000, "number of sessions (per subscriber for -kind live)")
		seed        = flag.Int64("seed", 1, "master seed")
		format      = flag.String("format", "csv", "output format: csv (feature vectors) or jsonl (weblog entries)")
		set         = flag.String("set", "stall", "feature set for csv output: stall or rep")
		subscribers = flag.Int("subscribers", 64, "concurrent subscriber population for -kind live")
		labelRate   = flag.Float64("label-rate", 0, "fraction of live sessions that emit a delayed ground-truth label line")
		labelDelay  = flag.Float64("label-delay", 120, "mean extra label delay in seconds for -kind live")
		drift       = flag.Bool("drift", false, "skew the live population onto degraded network paths (feature-drift scenario)")
		hotspot     = flag.String("hotspot", "", "degrade one region's network paths for -kind live (a regional-outage scenario the cohort rollup should surface)")
		hotspotSev  = flag.Float64("hotspot-severity", 0.8, "fraction of the -hotspot region's sessions forced onto poor paths, in (0,1]")
		regionSkew  = flag.Float64("region-skew", 0, "concentrate live subscribers onto the first region: 0 keeps the default mix, 1 puts everyone there")
		wireAddr    = flag.String("wire", "", "send the -kind live stream to this wire listener (host:port or unix:/path) instead of stdout")
	)
	flag.Parse()

	if *kind == "live" {
		lcfg := workload.DefaultLiveConfig()
		lcfg.Subscribers = *subscribers
		lcfg.SessionsPerSubscriber = *n
		lcfg.Seed = *seed
		lcfg.LabelRate = *labelRate
		lcfg.LabelDelayMeanSec = *labelDelay
		if *drift {
			lcfg.ProfileWeights = [3]float64{0.05, 0.15, 0.8}
		}
		if *hotspot != "" {
			known := false
			for _, r := range workload.Regions {
				known = known || r == *hotspot
			}
			if !known {
				fmt.Fprintf(os.Stderr, "qoegen: -hotspot %q is not one of %v\n", *hotspot, workload.Regions)
				os.Exit(1)
			}
		}
		lcfg.HotspotRegion = *hotspot
		lcfg.HotspotSeverity = *hotspotSev
		if s := *regionSkew; s != 0 {
			if s < 0 || s > 1 {
				fmt.Fprintf(os.Stderr, "qoegen: -region-skew %g out of [0,1]\n", s)
				os.Exit(1)
			}
			// blend the default mix toward a point mass on Regions[0];
			// cohort draws ride a dedicated RNG stream, so this never
			// perturbs the traffic itself
			lcfg.RegionWeights = make([]float64, len(workload.Regions))
			for i, w := range workload.DefaultRegionWeights {
				lcfg.RegionWeights[i] = (1 - s) * w
			}
			lcfg.RegionWeights[0] += s
		}
		live := workload.GenerateLive(lcfg)
		var err error
		if *wireAddr != "" {
			err = sendLiveWire(live, *wireAddr)
		} else {
			err = writeLiveJSONL(live)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qoegen:", err)
			os.Exit(1)
		}
		return
	}

	var corpus *workload.Corpus
	switch *kind {
	case "cleartext":
		cfg := workload.DefaultConfig(*n)
		cfg.Seed = *seed
		corpus = workload.Generate(cfg)
	case "has":
		cfg := workload.DefaultConfig(*n)
		cfg.AdaptiveFraction = 1
		cfg.Seed = *seed
		corpus = workload.Generate(cfg)
	case "encrypted":
		cfg := workload.DefaultStudyConfig()
		cfg.Sessions = *n
		cfg.Seed = *seed
		corpus = workload.GenerateStudy(cfg).Corpus
	default:
		fmt.Fprintf(os.Stderr, "qoegen: unknown kind %q\n", *kind)
		os.Exit(1)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var err error
	switch *format {
	case "csv":
		err = writeCSV(out, corpus, *set)
	case "jsonl":
		err = writeJSONL(out, corpus)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qoegen:", err)
		os.Exit(1)
	}
}

func writeCSV(out *bufio.Writer, corpus *workload.Corpus, set string) error {
	var names []string
	var vector func(features.SessionObs) []float64
	switch set {
	case "stall":
		names = features.StallFeatureNames()
		vector = features.StallFeatures
	case "rep":
		names = features.RepFeatureNames()
		vector = features.RepFeatures
	default:
		return fmt.Errorf("unknown feature set %q", set)
	}

	w := csv.NewWriter(out)
	header := append([]string{"session_id", "mode", "profile"}, names...)
	header = append(header, "rr", "stall_label", "avg_quality", "rep_label", "switch_freq", "switch_amp", "var_label")
	if err := w.Write(header); err != nil {
		return err
	}
	for _, s := range corpus.Sessions {
		row := []string{s.Trace.SessionID, s.Mode.String(), s.Profile}
		for _, v := range vector(s.Obs) {
			row = append(row, strconv.FormatFloat(v, 'g', 8, 64))
		}
		row = append(row,
			strconv.FormatFloat(s.RR, 'g', 6, 64),
			s.Stall.String(),
			strconv.FormatFloat(s.AvgQuality, 'g', 6, 64),
			s.Rep.String(),
			strconv.Itoa(s.SwitchFreq),
			strconv.FormatFloat(s.SwitchAmp, 'g', 6, 64),
			s.Var.String(),
		)
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// interleave hands the live workload to its sinks in one time order:
// entries by timestamp, each label at its availability time — the
// stream a monitor would see live, where a session's truth arrives
// well after its traffic.
func interleave(live *workload.Live, entry func(*weblog.Entry) error, label func(*qualitymon.Label) error) error {
	li := 0
	labelsUntil := func(t float64) error {
		for ; li < len(live.Labels) && live.Labels[li].AvailableAt <= t; li++ {
			l := liveLabel(live.Labels[li])
			if err := label(&l); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range live.Entries {
		if err := labelsUntil(live.Entries[i].Timestamp); err != nil {
			return err
		}
		if err := entry(&live.Entries[i]); err != nil {
			return err
		}
	}
	return labelsUntil(math.Inf(1))
}

// writeLiveJSONL writes the interleaved live stream as JSONL.
func writeLiveJSONL(live *workload.Live) error {
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	err := interleave(live,
		func(e *weblog.Entry) error { return enc.Encode(e) },
		func(l *qualitymon.Label) error { return enc.Encode(l) })
	if err != nil {
		return err
	}
	return out.Flush()
}

func liveLabel(l workload.SessionLabel) qualitymon.Label {
	return qualitymon.Label{
		Type:        qualitymon.LabelType,
		Subscriber:  l.Subscriber,
		Start:       l.Start,
		End:         l.End,
		AvailableAt: l.AvailableAt,
		Stall:       int(l.Stall),
		Rep:         int(l.Rep),
	}
}

// sendLiveWire streams the interleaved live stream over the binary
// frame protocol, then syncs, so a clean exit means the server decoded
// everything.
func sendLiveWire(live *workload.Live, addr string) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := interleave(live, c.AppendEntry, c.AppendLabel); err != nil {
		return err
	}
	ack, err := c.Sync()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qoegen: wire sync: server decoded %d entries, %d labels\n",
		ack.Entries, ack.Labels)
	return nil
}

func writeJSONL(out *bufio.Writer, corpus *workload.Corpus) error {
	enc := json.NewEncoder(out)
	for _, s := range corpus.Sessions {
		for _, e := range s.Entries {
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
	}
	return nil
}
