// Operator deployment scenario: a subscriber's encrypted weblog stream
// arrives from the proxy; sessions are reconstructed with the §5.2
// heuristics (domain filter, watch-page boundaries, idle gaps) and
// each completed session is assessed by the trained framework —
// no client instrumentation, no URIs, a single vantage point.
package main

import (
	"fmt"
	"log"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/mos"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

func main() {
	// Train once on cleartext (in production this model would be
	// loaded from disk; see cmd/qoereport -save-stall / -save-rep).
	clearCfg := workload.DefaultConfig(800)
	clearCfg.Seed = 21
	hasCfg := workload.DefaultConfig(400)
	hasCfg.AdaptiveFraction = 1
	hasCfg.Seed = 22
	trainCfg := core.DefaultTrainConfig()
	trainCfg.CVFolds = 5
	trainCfg.Forest.Trees = 30
	fw, _, err := core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), trainCfg)
	if err != nil {
		log.Fatal(err)
	}

	// A stretch of one subscriber's encrypted traffic.
	studyCfg := workload.DefaultStudyConfig()
	studyCfg.Sessions = 25
	studyCfg.Seed = 23
	study := workload.GenerateStudy(studyCfg)

	// Reconstruct sessions from the raw stream — the operator gets no
	// session IDs on TLS flows.
	sessions := sessionizer.Group(study.Stream, sessionizer.DefaultConfig())
	fmt.Printf("reconstructed %d sessions from %d weblog entries\n\n",
		len(sessions), len(study.Stream))

	fmt.Printf("%8s %10s  %-14s %-8s %-9s %-6s %s\n",
		"start", "duration", "stalling", "quality", "switching", "chunks", "MOS")
	problematic := 0
	for _, s := range sessions {
		if len(s.MediaIndices(study.Stream)) < 3 {
			continue // signalling-only fragments
		}
		obs := features.FromEntries(pick(study.Stream, s.Indices))
		r := fw.Analyze(obs)
		if r.Stall != features.NoStall || r.SwitchVariance {
			problematic++
		}
		sw := "steady"
		if r.SwitchVariance {
			sw = "variable"
		}
		score := mos.FromReport(r)
		fmt.Printf("%7.0fs %9.0fs  %-14s %-8s %-9s %-6d %.1f (%s)\n",
			s.Start, s.End-s.Start, r.Stall, r.Representation, sw, r.Chunks,
			float64(score), score.Verbal())
	}
	fmt.Printf("\n%d sessions flagged with QoE issues\n", problematic)
}

func pick(entries []weblog.Entry, idx []int) []weblog.Entry {
	out := make([]weblog.Entry, len(idx))
	for i, j := range idx {
		out[i] = entries[j]
	}
	return out
}
