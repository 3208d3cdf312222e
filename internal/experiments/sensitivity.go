package experiments

import (
	"vqoe/internal/core"
	"vqoe/internal/ml"
	"vqoe/internal/netsim"
	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
	"vqoe/internal/workload"
)

// TransferPoint is one (commuter fraction, encrypted accuracy) sample.
type TransferPoint struct {
	CommuterFraction float64
	Accuracy         float64
	NoStallRecall    float64
}

// TransferSensitivity probes the reproduction's main divergence from
// the paper (Tables 8–9) by sweeping the encrypted study's mobility
// mix. The result is diagnostic either way: if accuracy degraded with
// the commuter fraction, mobility shift would explain the gap; in
// practice the curve is roughly flat, isolating the all-adaptive vs
// progressive-heavy *mode* imbalance between study and training corpus
// as the driver.
func (s *Suite) TransferSensitivity(fractions []float64) ([]TransferPoint, error) {
	det, _, err := s.StallModel()
	if err != nil {
		return nil, err
	}
	out := make([]TransferPoint, 0, len(fractions))
	for i, frac := range fractions {
		cfg := workload.DefaultStudyConfig()
		cfg.Sessions = s.Scale.Encrypted
		cfg.CommuterFraction = frac
		cfg.Seed = s.Scale.Seed + 300 + int64(i)
		study := workload.GenerateStudy(cfg)
		conf, err := det.Evaluate(core.BuildStallDataset(study.Corpus))
		if err != nil {
			return nil, err
		}
		out = append(out, TransferPoint{
			CommuterFraction: frac,
			Accuracy:         conf.Accuracy(),
			NoStallRecall:    conf.Recall(0),
		})
	}
	return out, nil
}

// ThresholdPoint is one sample of the switch-detection threshold sweep.
type ThresholdPoint struct {
	Threshold    float64
	SteadyBelow  float64
	VaryingAbove float64
}

// SwitchThresholdSweep evaluates the CUSUM switch detector across a
// range of thresholds on the cleartext HAS corpus — the data behind
// the paper's choice of 500 in Figure 4.
func (s *Suite) SwitchThresholdSweep(thresholds []float64) []ThresholdPoint {
	det := core.NewSwitchDetector()
	out := make([]ThresholdPoint, 0, len(thresholds))
	for _, th := range thresholds {
		det.Threshold = th
		ev := det.EvaluateSwitch(s.HAS())
		out = append(out, ThresholdPoint{
			Threshold:    th,
			SteadyBelow:  ev.SteadyBelow,
			VaryingAbove: ev.VaryingAbove,
		})
	}
	return out
}

// BaselineAUC trains the binary buffering classifier on a 70/30 split
// and reports the held-out ROC AUC — the ranking quality behind the
// §6 baseline's single accuracy number.
func (s *Suite) BaselineAUC() float64 {
	ds := core.BuildBinaryStallDataset(s.Cleartext())
	r := stats.NewRand(s.Scale.Seed)
	folds := ds.StratifiedFolds(3, r)
	trainIdx, testIdx := ml.Split(folds, 0)
	train := ds.Subset(trainIdx).Balance(r)
	forest := ml.TrainForest(train, ml.ForestConfig{Trees: s.Scale.Trees, Seed: s.Scale.Seed})
	scores, labels := ml.BinaryScores(forest, ds.Subset(testIdx), 1)
	return ml.AUC(ml.ROC(scores, labels))
}

// ABRPoint is one operating point of the ABR safety-margin sweep.
type ABRPoint struct {
	Safety       float64
	StallRate    float64 // fraction of sessions with ≥1 stall
	AvgQuality   float64 // mean session resolution
	SwitchPerMin float64 // representation switches per content minute
}

// AblationABR sweeps the ABR throughput-discount factor over a
// commuter-heavy adaptive workload, exposing the classic stall/quality
// trade-off the player's design point sits on — the substrate-side
// design choice that shapes every detector input.
func (s *Suite) AblationABR(safeties []float64) []ABRPoint {
	out := make([]ABRPoint, 0, len(safeties))
	for i, safety := range safeties {
		r := stats.NewRand(s.Scale.Seed + 400 + int64(i))
		catalog := video.NewCatalog(60, r)
		const sessions = 150
		var stalled, switches int
		var qualSum, minutes float64
		for k := 0; k < sessions; k++ {
			v := catalog.Pick()
			net := netsim.NewPath(netsim.CommuterProfile(), r.Fork())
			cfg := player.DefaultConfig(player.Adaptive)
			cfg.ABRSafety = safety
			tr := player.Run(v, net, cfg, r.Fork())
			if tr.StallCount() > 0 {
				stalled++
			}
			switches += tr.SwitchFrequency()
			qualSum += tr.AverageQuality()
			minutes += tr.PlayedSeconds / 60
		}
		pt := ABRPoint{
			Safety:     safety,
			StallRate:  float64(stalled) / sessions,
			AvgQuality: qualSum / sessions,
		}
		if minutes > 0 {
			pt.SwitchPerMin = float64(switches) / minutes
		}
		out = append(out, pt)
	}
	return out
}
