package engine_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/qualitymon"
	"vqoe/internal/workload"
)

// The drift fixtures train once on corpora whose network-profile and
// quality-cap mixes match the *undrifted* live workload below, so the
// baseline sketches describe the traffic the healthy run replays.
var (
	driftOnce sync.Once
	driftFW   *core.Framework
)

func driftFramework(t *testing.T) *core.Framework {
	t.Helper()
	driftOnce.Do(func() {
		stallCfg := workload.DefaultConfig(700)
		stallCfg.AdaptiveFraction = 1 // live traffic is all HAS
		stallCfg.Encrypted = true
		stallCfg.Seed = 81
		hasCfg := workload.DefaultConfig(700)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Encrypted = true
		hasCfg.Seed = 82
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 20
		var err error
		driftFW, _, err = core.TrainFramework(workload.Generate(stallCfg), workload.Generate(hasCfg), tcfg)
		if err != nil {
			panic(err)
		}
	})
	return driftFW
}

// trainMatchedLive returns a live config whose session mix matches the
// training corpora (workload.DefaultConfig's weights).
func trainMatchedLive(seed int64) workload.LiveConfig {
	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 96
	lcfg.SessionsPerSubscriber = 4
	lcfg.Seed = seed
	lcfg.ProfileWeights = [3]float64{0.80, 0.14, 0.06}
	lcfg.QualityCapWeights = [6]float64{0.06, 0.16, 0.22, 0.44, 0.08, 0.04}
	return lcfg
}

// runLive pushes one live workload through a quality-monitored engine,
// feeds the delayed ground-truth labels, and returns the health
// snapshot plus the emitted reports.
func runLive(t *testing.T, fw *core.Framework, lcfg workload.LiveConfig, shards int) (qualitymon.Snapshot, []engine.Report, *workload.Live) {
	t.Helper()
	live := workload.GenerateLive(lcfg)
	cfg := engine.DefaultConfig()
	cfg.Shards = shards
	cfg.Quality = core.NewQualityMonitor(fw, shards, qualitymon.Thresholds{})
	eng := engine.New(fw, cfg, nil)
	var reports []engine.Report
	for lo := 0; lo < len(live.Entries); lo += 512 {
		hi := lo + 512
		if hi > len(live.Entries) {
			hi = len(live.Entries)
		}
		reps, _ := eng.Ingest(live.Entries[lo:hi])
		reports = append(reports, reps...)
	}
	reports = append(reports, eng.Drain()...)
	for _, l := range live.Labels {
		eng.ObserveLabel(qualitymon.Label{
			Subscriber:  l.Subscriber,
			Start:       l.Start,
			End:         l.End,
			AvailableAt: l.AvailableAt,
			Stall:       int(l.Stall),
			Rep:         int(l.Rep),
		})
	}
	return eng.Quality().Snapshot(), reports, live
}

// TestEngineDriftDetection is the end-to-end acceptance scenario: a
// live workload drawn from the training distribution keeps every PSI
// under the degradation threshold, while the same engine fed a
// drift-injected workload (population pushed onto congested paths)
// trips feature drift on at least one selected feature.
func TestEngineDriftDetection(t *testing.T) {
	fw := driftFramework(t)

	healthy, _, _ := runLive(t, fw, trainMatchedLive(91), 4)
	for _, ms := range healthy.Models {
		if !ms.HasBaseline {
			t.Fatalf("model %s trained without a baseline", ms.Name)
		}
		if ms.Samples < 200 {
			t.Fatalf("model %s saw only %d samples; fixture too small for the 200-sample gate", ms.Name, ms.Samples)
		}
		for _, fd := range ms.Features {
			if fd.Drifted {
				t.Errorf("undrifted run: model %s feature %s flagged drifted (PSI %.3f)", ms.Name, fd.Name, fd.PSI)
			}
		}
		for _, r := range ms.Reasons {
			if r != "" && ms.Degraded {
				t.Errorf("undrifted run: model %s degraded: %s", ms.Name, r)
			}
		}
	}

	drifted := trainMatchedLive(91)
	drifted.ProfileWeights = [3]float64{0.05, 0.15, 0.80} // qoegen -drift
	sick, _, _ := runLive(t, fw, drifted, 4)
	found := false
	for _, ms := range sick.Models {
		for _, fd := range ms.Features {
			if fd.Drifted && fd.PSI > 0.2 {
				found = true
			}
		}
	}
	if !found {
		for _, ms := range sick.Models {
			t.Logf("model %s max PSI %.3f on %s", ms.Name, ms.MaxPSI, ms.MaxPSIFeature)
		}
		t.Fatal("drift-injected workload tripped no feature PSI above 0.2")
	}
	if !sick.Degraded {
		t.Error("drift-injected run did not set the top-level degraded flag")
	}
}

// TestEngineOnlineAccuracyMatchesOffline checks the label-matching
// machinery end to end: the accuracy the monitor computes from delayed
// labels must agree (within 2 points) with matching the same labels to
// the engine's reports directly.
func TestEngineOnlineAccuracyMatchesOffline(t *testing.T) {
	fw := driftFramework(t)
	lcfg := trainMatchedLive(93)
	lcfg.LabelRate = 1
	sn, reports, live := runLive(t, fw, lcfg, 4)

	if len(live.Labels) == 0 {
		t.Fatal("LabelRate=1 produced no labels")
	}
	bySub := map[string][]engine.Report{}
	for _, r := range reports {
		bySub[r.Subscriber] = append(bySub[r.Subscriber], r)
	}
	var matched, stallOK, repOK int
	for _, l := range live.Labels {
		var best *engine.Report
		bestOv := 0.0
		for i := range bySub[l.Subscriber] {
			r := &bySub[l.Subscriber][i]
			ov := math.Min(r.End, l.End) - math.Max(r.Start, l.Start)
			if ov > bestOv {
				bestOv, best = ov, r
			}
		}
		if best == nil {
			continue
		}
		matched++
		if int(best.Report.Stall) == int(l.Stall) {
			stallOK++
		}
		if int(best.Report.Representation) == int(l.Rep) {
			repOK++
		}
	}
	if matched == 0 {
		t.Fatal("no label overlapped any engine report")
	}
	if got := sn.Labels.Matched; got < int64(matched*95/100) {
		t.Errorf("monitor matched %d labels, direct overlap matching finds %d", got, matched)
	}
	offline := []float64{float64(stallOK) / float64(matched), float64(repOK) / float64(matched)}
	for i, ms := range sn.Models {
		if ms.Labeled == 0 {
			t.Fatalf("model %s received no matched labels", ms.Name)
		}
		if diff := math.Abs(ms.OnlineAccuracy - offline[i]); diff > 0.02 {
			t.Errorf("model %s online accuracy %.3f vs offline %.3f (diff %.3f > 0.02)",
				ms.Name, ms.OnlineAccuracy, offline[i], diff)
		}
	}
}

// TestAssessFeedsQualityMonitor: the shards' close loop is the quality
// monitor's one feed. On a seeded live stream at four shards with
// sweeps off, each model's prediction counts equal the class counts of
// the emitted reports, the switch totals equal the reports', and every
// feature's PSI equals that of a one-shard monitor fed directly from
// AnalyzeBatchInto and Projected over the same closed sessions.
func TestAssessFeedsQualityMonitor(t *testing.T) {
	fw, live := fixtures(t)
	mon := core.NewQualityMonitor(fw, 4, qualitymon.Thresholds{})
	eng := engine.New(fw, engine.Config{Shards: 4, SweepEverySec: -1, Quality: mon}, nil)
	var reports []engine.Report
	for lo := 0; lo < len(live.Entries); lo += 500 {
		reps, _ := eng.Ingest(live.Entries[lo:min(lo+500, len(live.Entries))])
		reports = append(reports, reps...)
	}
	reports = append(reports, eng.Drain()...)
	got := mon.Snapshot()

	counts := [2][]int64{make([]int64, len(got.Models[0].Classes)), make([]int64, len(got.Models[1].Classes))}
	var varying, chunks int64
	for _, r := range reports {
		counts[0][r.Report.Stall]++
		counts[1][r.Report.Representation]++
		if r.Report.SwitchVariance {
			varying++
		}
		chunks += int64(r.Report.Chunks)
	}
	for m, ms := range got.Models {
		if !slices.Equal(ms.Counts, counts[m]) {
			t.Errorf("model %s: monitor counts %v, reports' classes %v", ms.Name, ms.Counts, counts[m])
		}
	}
	if sw := got.Switch; sw.Sessions != int64(len(reports)) || sw.Varying != varying || sw.ChunkSum != chunks {
		t.Errorf("switch: %d sessions, %d varying, %d chunks; reports: %d, %d, %d",
			sw.Sessions, sw.Varying, sw.ChunkSum, len(reports), varying, chunks)
	}

	var sessions []features.SessionObs
	referenceSessions(live, func(_ string, _, _ float64, o features.SessionObs) { sessions = append(sessions, o) })
	if len(sessions) != len(reports) {
		t.Fatalf("reference closes %d sessions, the engine reported %d", len(sessions), len(reports))
	}
	ref := core.NewQualityMonitor(fw, 1, qualitymon.Thresholds{})
	var sc core.AnalyzeScratch
	for i, r := range fw.AnalyzeBatchInto(sessions, nil, &sc) {
		stallProj, repProj := fw.Projected(&sc, i)
		ref.Stall.Observe(0, stallProj, int(r.Stall), r.StallConf)
		ref.Rep.Observe(0, repProj, int(r.Representation), r.RepConf)
	}
	want := ref.Snapshot()
	for m, ms := range got.Models {
		if !ms.HasBaseline || len(ms.Features) == 0 {
			t.Fatalf("model %s: no baseline features to compare", ms.Name)
		}
		for f, fd := range ms.Features {
			if w := want.Models[m].Features[f]; fd.Name != w.Name || fd.PSI != w.PSI {
				t.Errorf("model %s feature %s: PSI %v, one-shard reference %s %v", ms.Name, fd.Name, fd.PSI, w.Name, w.PSI)
			}
		}
	}
}
