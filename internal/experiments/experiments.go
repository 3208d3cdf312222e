// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a method on a Suite, which lazily
// generates the corpora and trains the models it needs; the cmd tools
// and the benchmark harness share this single implementation.
package experiments

import (
	"strings"
	"sync"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/ml"
	"vqoe/internal/sessionizer"
	"vqoe/internal/stats"
	"vqoe/internal/timeseries"
	"vqoe/internal/workload"
)

// Scale sets the experiment sizes. The paper's corpora are ~390k
// cleartext and 722 encrypted sessions; the default reproduction scale
// trades a few points of statistical smoothness for minutes of runtime.
type Scale struct {
	// Cleartext is the mixed progressive/HAS training corpus size.
	Cleartext int
	// HAS is the adaptive-only corpus for the representation and
	// switch experiments.
	HAS int
	// Encrypted is the §5 study size.
	Encrypted int
	// Trees is the Random Forest ensemble size.
	Trees int
	// Folds is the cross-validation fold count.
	Folds int
	// Seed fixes everything.
	Seed int64
}

// QuickScale is a reduced scale for benchmarks and smoke runs.
func QuickScale() Scale {
	return Scale{Cleartext: 1500, HAS: 800, Encrypted: 250, Trees: 30, Folds: 5, Seed: 1}
}

// Only parses a tool's -only flag — a comma-separated list of experiment
// keys — into its selector: with an empty list every experiment runs,
// otherwise one runs when any of its keys was named.
func Only(list string) func(keys ...string) bool {
	want := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			want[s] = true
		}
	}
	return func(keys ...string) bool {
		if len(want) == 0 {
			return true
		}
		for _, k := range keys {
			if want[k] {
				return true
			}
		}
		return false
	}
}

// Suite owns the corpora and trained models of one reproduction run.
// All accessors are safe for sequential reuse; expensive artefacts are
// built once.
type Suite struct {
	Scale Scale

	onceClear sync.Once
	clear     *workload.Corpus

	onceHAS sync.Once
	has     *workload.Corpus

	onceStudy sync.Once
	study     *workload.Study

	onceStall sync.Once
	stallDet  *core.StallDetector
	stallRep  *core.TrainReport
	stallErr  error

	onceRep sync.Once
	repDet  *core.RepresentationDetector
	repRep  *core.TrainReport
	repErr  error
}

// NewSuite creates a suite at the given scale.
func NewSuite(s Scale) *Suite { return &Suite{Scale: s} }

// Cleartext returns the mixed training corpus (generated on first use).
func (s *Suite) Cleartext() *workload.Corpus {
	s.onceClear.Do(func() {
		cfg := workload.DefaultConfig(s.Scale.Cleartext)
		cfg.Seed = s.Scale.Seed
		s.clear = workload.Generate(cfg)
	})
	return s.clear
}

// HAS returns the adaptive-only cleartext corpus.
func (s *Suite) HAS() *workload.Corpus {
	s.onceHAS.Do(func() {
		cfg := workload.DefaultConfig(s.Scale.HAS)
		cfg.AdaptiveFraction = 1
		cfg.Seed = s.Scale.Seed + 1
		s.has = workload.Generate(cfg)
	})
	return s.has
}

// Study returns the encrypted evaluation study.
func (s *Suite) Study() *workload.Study {
	s.onceStudy.Do(func() {
		cfg := workload.DefaultStudyConfig()
		cfg.Sessions = s.Scale.Encrypted
		cfg.Seed = s.Scale.Seed + 2
		s.study = workload.GenerateStudy(cfg)
	})
	return s.study
}

func (s *Suite) trainCfg() core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Forest.Trees = s.Scale.Trees
	cfg.CVFolds = s.Scale.Folds
	cfg.Seed = s.Scale.Seed
	return cfg
}

// StallModel trains (once) and returns the stall detector with its
// training report.
func (s *Suite) StallModel() (*core.StallDetector, *core.TrainReport, error) {
	s.onceStall.Do(func() {
		s.stallDet, s.stallRep, s.stallErr = core.TrainStall(s.Cleartext(), s.trainCfg())
	})
	return s.stallDet, s.stallRep, s.stallErr
}

// RepModel trains (once) and returns the representation detector.
func (s *Suite) RepModel() (*core.RepresentationDetector, *core.TrainReport, error) {
	s.onceRep.Do(func() {
		s.repDet, s.repRep, s.repErr = core.TrainRepresentation(s.HAS(), s.trainCfg())
	})
	return s.repDet, s.repRep, s.repErr
}

// ---- Tables ----

// Table2 returns the stall model's selected features and information
// gains.
func (s *Suite) Table2() ([]ml.RankedFeature, error) {
	_, rep, err := s.StallModel()
	if err != nil {
		return nil, err
	}
	return rep.Selected, nil
}

// Table3and4 returns the stall model's cross-validation confusion
// matrix on cleartext (Table 3 derives from it; Table 4 is its row
// percentages).
func (s *Suite) Table3and4() (*ml.Confusion, error) {
	_, rep, err := s.StallModel()
	if err != nil {
		return nil, err
	}
	return rep.CV, nil
}

// Table5 returns the representation model's selected features.
func (s *Suite) Table5() ([]ml.RankedFeature, error) {
	_, rep, err := s.RepModel()
	if err != nil {
		return nil, err
	}
	return rep.Selected, nil
}

// Table6and7 returns the representation model's cleartext CV matrix.
func (s *Suite) Table6and7() (*ml.Confusion, error) {
	_, rep, err := s.RepModel()
	if err != nil {
		return nil, err
	}
	return rep.CV, nil
}

// Table8and9 applies the cleartext-trained stall model to the
// encrypted study.
func (s *Suite) Table8and9() (*ml.Confusion, error) {
	det, _, err := s.StallModel()
	if err != nil {
		return nil, err
	}
	return det.EvaluateCorpus(s.Study().Corpus)
}

// Table10and11 applies the representation model to the encrypted
// study.
func (s *Suite) Table10and11() (*ml.Confusion, error) {
	det, _, err := s.RepModel()
	if err != nil {
		return nil, err
	}
	return det.EvaluateCorpus(s.Study().Corpus)
}

// ---- Switch detection (§4.3 / §5.6) ----

// SwitchCleartext evaluates the fixed-threshold CUSUM detector on the
// cleartext HAS corpus.
func (s *Suite) SwitchCleartext() core.SwitchEvaluation {
	return core.NewSwitchDetector().EvaluateSwitch(s.HAS())
}

// SwitchEncrypted applies the same fixed threshold to the encrypted
// study.
func (s *Suite) SwitchEncrypted() core.SwitchEvaluation {
	return core.NewSwitchDetector().EvaluateSwitch(s.Study().Corpus)
}

// ---- Figures ----

// FigurePoint is an (x, y) sample of a rendered curve.
type FigurePoint = stats.Point

// Figure1 returns the chunk-size timeline of the controlled two-stall
// session: x = chunk arrival time, y = chunk size (KB), plus the stall
// instants.
func (s *Suite) Figure1() (pts []FigurePoint, stalls []float64) {
	fs := workload.Figure1Session(s.Scale.Seed)
	for _, c := range fs.Obs.Chunks {
		pts = append(pts, FigurePoint{X: c.Time, Y: c.SizeKB})
	}
	for _, st := range fs.Trace.Stalls {
		stalls = append(stalls, st.At)
	}
	return pts, stalls
}

// Figure2 returns the ECDFs of stall count and rebuffering ratio per
// session over the cleartext corpus.
func (s *Suite) Figure2() (stallCounts, rrs *stats.ECDF) {
	var counts, ratios []float64
	for _, sess := range s.Cleartext().Sessions {
		counts = append(counts, float64(sess.Trace.StallCount()))
		ratios = append(ratios, sess.RR)
	}
	return stats.NewECDF(counts), stats.NewECDF(ratios)
}

// Figure3 returns the Δt and Δsize series around a controlled
// representation upswitch: x = chunk index time, paired deltas.
func (s *Suite) Figure3() (times, dsizes, dts []float64) {
	fs := workload.Figure3Session(s.Scale.Seed)
	chunks := fs.Obs.Chunks
	for i := 1; i < len(chunks); i++ {
		times = append(times, chunks[i].Time)
		dsizes = append(dsizes, chunks[i].SizeKB-chunks[i-1].SizeKB)
		dts = append(dts, chunks[i].Time-chunks[i-1].Time)
	}
	return times, dsizes, dts
}

// Figure4 returns the change-score CDFs for sessions with and without
// representation variance over the cleartext HAS corpus.
func (s *Suite) Figure4() (steady, varying *stats.ECDF) {
	st, va := core.NewSwitchDetector().ScoreDistributions(s.HAS())
	return stats.NewECDF(st), stats.NewECDF(va)
}

// Figure5 returns the CDFs of segment size (KB) and inter-arrival time
// (s) for the encrypted and cleartext datasets.
func (s *Suite) Figure5() (sizeClear, sizeEnc, iatClear, iatEnc *stats.ECDF) {
	collect := func(c *workload.Corpus) (sizes, iats []float64) {
		for _, sess := range c.Sessions {
			for i, ch := range sess.Obs.Chunks {
				sizes = append(sizes, ch.SizeKB)
				if i > 0 {
					iats = append(iats, ch.Time-sess.Obs.Chunks[i-1].Time)
				}
			}
		}
		return sizes, iats
	}
	cs, ci := collect(s.HAS())
	es, ei := collect(s.Study().Corpus)
	return stats.NewECDF(cs), stats.NewECDF(es), stats.NewECDF(ci), stats.NewECDF(ei)
}

// ---- §5.2 session grouping and §6 baseline ----

// Grouping runs the sessionizer over the study's encrypted stream and
// scores it against the truth labels.
func (s *Suite) Grouping() sessionizer.Evaluation {
	st := s.Study()
	sessions := sessionizer.Group(st.Stream, sessionizer.DefaultConfig())
	return sessionizer.Evaluate(st.Stream, sessions, st.StreamLabels)
}

// BaselineBinary reproduces the Prometheus-style binary buffering
// classifier the paper compares against (~84% accuracy, [15]).
func (s *Suite) BaselineBinary() *ml.Confusion {
	ds := core.BuildBinaryStallDataset(s.Cleartext())
	cfg := ml.ForestConfig{Trees: s.Scale.Trees, Seed: s.Scale.Seed}
	return ml.CrossValidate(ds, s.Scale.Folds, cfg, s.Scale.Seed, 0)
}

// ---- Ablations ----

// AblationResult compares a variant against the reference pipeline.
type AblationResult struct {
	Name      string
	Reference float64
	Variant   float64
}

// AblationStallWithoutChunkFeatures retrains the stall model with all
// chunk-size and chunk-time features removed, quantifying §4.1's claim
// that chunk sizes "significantly improve the accuracy".
func (s *Suite) AblationStallWithoutChunkFeatures() (AblationResult, error) {
	_, rep, err := s.StallModel()
	if err != nil {
		return AblationResult{}, err
	}
	ds := core.BuildStallDataset(s.Cleartext())
	var kept []string
	for _, n := range ds.Names {
		if len(n) >= 5 && n[:5] == "chunk" {
			continue
		}
		kept = append(kept, n)
	}
	reduced, err := ds.SelectFeatures(kept)
	if err != nil {
		return AblationResult{}, err
	}
	cfg := s.trainCfg()
	cv := ml.CrossValidate(reduced, cfg.CVFolds, cfg.Forest, cfg.Seed, 0)
	return AblationResult{
		Name:      "stall model without chunk features",
		Reference: rep.CV.Accuracy(),
		Variant:   cv.Accuracy(),
	}, nil
}

// AblationStallAllFeatures retrains the stall model on all 70 features
// without CFS selection, quantifying what the 70→4 reduction costs.
func (s *Suite) AblationStallAllFeatures() (AblationResult, error) {
	_, rep, err := s.StallModel()
	if err != nil {
		return AblationResult{}, err
	}
	ds := core.BuildStallDataset(s.Cleartext())
	cfg := s.trainCfg()
	cv := ml.CrossValidate(ds, cfg.CVFolds, cfg.Forest, cfg.Seed, 0)
	return AblationResult{
		Name:      "stall model on all 70 features (no CFS)",
		Reference: rep.CV.Accuracy(),
		Variant:   cv.Accuracy(),
	}, nil
}

// AblationSwitchProduct compares the Δsize×Δt product against Δsize or
// Δt alone as the CUSUM input (§4.3 argues for the product).
func (s *Suite) AblationSwitchProduct() []AblationResult {
	type variant struct {
		name   string
		series func(features.SessionObs) []float64
	}
	product := func(obs features.SessionObs) []float64 {
		return features.SwitchSeries(obs, features.StartupFilterSec)
	}
	deltaOnly := func(pick func(a, b features.ChunkObs) float64) func(features.SessionObs) []float64 {
		return func(obs features.SessionObs) []float64 {
			var kept []features.ChunkObs
			for _, c := range obs.Chunks {
				if c.Time >= features.StartupFilterSec {
					kept = append(kept, c)
				}
			}
			if len(kept) < 3 {
				return nil
			}
			out := make([]float64, 0, len(kept)-1)
			for i := 1; i < len(kept); i++ {
				out = append(out, pick(kept[i-1], kept[i]))
			}
			return out
		}
	}
	variants := []variant{
		{"Δsize × Δt (paper)", product},
		{"Δsize alone", deltaOnly(func(a, b features.ChunkObs) float64 { return b.SizeKB - a.SizeKB })},
		{"Δt alone", deltaOnly(func(a, b features.ChunkObs) float64 { return b.Time - a.Time })},
	}

	corpus := s.HAS().Adaptive()
	out := make([]AblationResult, 0, len(variants))
	for _, v := range variants {
		// calibrate per-variant threshold (units differ), then report
		// the balanced detection rate
		var steady, varying []float64
		for _, sess := range corpus.Sessions {
			score := timeseries.ChangeScore(v.series(sess.Obs))
			if sess.Var == features.NoVariation {
				steady = append(steady, score)
			} else {
				varying = append(varying, score)
			}
		}
		out = append(out, AblationResult{
			Name:    v.name,
			Variant: bestBalance(steady, varying),
		})
	}
	for i := range out {
		out[i].Reference = out[0].Variant
	}
	return out
}

// AblationStartupFilter compares switch detection with and without the
// 10-second startup filter.
func (s *Suite) AblationStartupFilter() AblationResult {
	det := core.NewSwitchDetector()
	ref := det.EvaluateSwitch(s.HAS())
	det.StartupFilterSec = 0
	det.Threshold = det.CalibrateThreshold(s.HAS())
	noFilter := det.EvaluateSwitch(s.HAS())
	return AblationResult{
		Name:      "switch detection without startup filter (recalibrated)",
		Reference: (ref.SteadyBelow + ref.VaryingAbove) / 2,
		Variant:   (noFilter.SteadyBelow + noFilter.VaryingAbove) / 2,
	}
}

// AblationSwitchML pits a Random Forest over the 210-feature set
// against the CUSUM methodology for binary switch detection — the
// paper tried ML here and found it did not perform as well (§4.3).
func (s *Suite) AblationSwitchML() AblationResult {
	corpus := s.HAS()
	ref := s.SwitchCleartext()

	ds := ml.NewDataset(features.RepFeatureNames(), []string{"steady", "varying"})
	for _, sess := range corpus.Adaptive().Sessions {
		label := 0
		if sess.Var != features.NoVariation {
			label = 1
		}
		ds.Add(features.RepFeatures(sess.Obs), label)
	}
	cfg := s.trainCfg()
	cv := ml.CrossValidate(ds, cfg.CVFolds, cfg.Forest, cfg.Seed, 0)
	return AblationResult{
		Name:      "ML classifier for switch detection (balanced rate)",
		Reference: (ref.SteadyBelow + ref.VaryingAbove) / 2,
		Variant:   (cv.TPRate(0) + cv.TPRate(1)) / 2,
	}
}

// bestBalance finds the threshold maximizing the mean of
// below-rate(steady) and above-rate(varying).
func bestBalance(steady, varying []float64) float64 {
	if len(steady) == 0 || len(varying) == 0 {
		return 0
	}
	se := stats.NewECDF(steady)
	ve := stats.NewECDF(varying)
	best := 0.0
	for _, t := range append(append([]float64(nil), steady...), varying...) {
		bal := (se.At(t) + (1 - ve.At(t))) / 2
		if bal > best {
			best = bal
		}
	}
	return best
}
