package experiments

import (
	"vqoe/internal/core"
	"vqoe/internal/ml"
	"vqoe/internal/video"
	"vqoe/internal/workload"
)

// CrossService is the §7 generalization experiment the paper leaves as
// future work: train the stall model on the YouTube-like service and
// apply it unchanged to services that package content differently
// (longer segments, hotter or leaner encoding ladders). The paper
// conjectures the methodology generalizes because those services
// "have adopted the same technologies"; this experiment quantifies it.
type CrossService struct {
	Service      string
	Accuracy     float64
	HomeAccuracy float64 // the same model on its home service
	Sessions     int
}

// CrossServiceStall evaluates the trained stall detector against
// corpora generated for each foreign service profile.
func (s *Suite) CrossServiceStall() ([]CrossService, error) {
	det, rep, err := s.StallModel()
	if err != nil {
		return nil, err
	}
	home := rep.CV.Accuracy()

	profiles := []video.ServiceProfile{video.VimeoLike(), video.DailymotionLike()}
	out := make([]CrossService, 0, len(profiles))
	for i, sp := range profiles {
		cfg := workload.DefaultConfig(s.Scale.Cleartext / 4)
		cfg.Service = sp
		cfg.Seed = s.Scale.Seed + 100 + int64(i)
		corpus := workload.Generate(cfg)
		conf, err := det.Evaluate(core.BuildStallDataset(corpus))
		if err != nil {
			return nil, err
		}
		out = append(out, CrossService{
			Service:      sp.Name,
			Accuracy:     conf.Accuracy(),
			HomeAccuracy: home,
			Sessions:     corpus.Len(),
		})
	}
	return out, nil
}

// LearningCurvePoint is one (corpus size, accuracy) sample.
type LearningCurvePoint struct {
	Sessions int
	Accuracy float64
}

// StallLearningCurve measures cross-validated stall accuracy as a
// function of training-corpus size — how much ground truth an operator
// must collect before the detector is usable.
func (s *Suite) StallLearningCurve(sizes []int) []LearningCurvePoint {
	out := make([]LearningCurvePoint, 0, len(sizes))
	for _, n := range sizes {
		cfg := workload.DefaultConfig(n)
		cfg.Seed = s.Scale.Seed + 200
		corpus := workload.Generate(cfg)
		ds := core.BuildStallDataset(corpus)
		fcfg := ml.ForestConfig{Trees: s.Scale.Trees, Seed: s.Scale.Seed}
		cv := ml.CrossValidate(ds, min(s.Scale.Folds, 5), fcfg, s.Scale.Seed)
		out = append(out, LearningCurvePoint{Sessions: n, Accuracy: cv.Accuracy()})
	}
	return out
}

// StallImportance reports the permutation importance of the stall
// model's selected features on the encrypted study — which features the
// deployed model actually leans on, and how that differs from the
// training-side information gains of Table 2.
func (s *Suite) StallImportance() ([]ml.Importance, error) {
	det, _, err := s.StallModel()
	if err != nil {
		return nil, err
	}
	ds := core.BuildStallDataset(s.Study().Corpus)
	reduced, err := ds.SelectFeatures(det.Selected)
	if err != nil {
		return nil, err
	}
	return ml.PermutationImportance(det.Forest, reduced, s.Scale.Seed), nil
}
