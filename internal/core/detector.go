package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"

	"vqoe/internal/features"
	"vqoe/internal/ml"
	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
	"vqoe/internal/workload"
)

// Detector is a trained Random Forest classifier over a selected
// feature subset, covering both the stall and the representation
// models (they differ only in feature set and labels).
type Detector struct {
	Forest *ml.Forest
	// Selected is the CFS-chosen feature subset, ordered by gain.
	Selected []string
	// Gains reports the information gain of each selected feature
	// (the content of Tables 2 and 5).
	Gains []ml.RankedFeature
	// full is the feature schema the raw vectors arrive in.
	full []string
	// selIdx maps Selected positions to full-schema columns (-1 when a
	// name is absent), precomputed so projection is an index gather
	// instead of |Selected|·|full| string compares per instance.
	selIdx []int
}

// indexSelected precomputes selIdx. Every detector passes through it:
// Train and LoadDetector are the only constructors (a hand-assembled
// Detector{} has no full schema to project from).
func (d *Detector) indexSelected() {
	idx := make([]int, len(d.Selected))
	for i, name := range d.Selected {
		idx[i] = -1
		for j, n := range d.full {
			if n == name {
				idx[i] = j
				break
			}
		}
	}
	d.selIdx = idx
}

// TrainConfig bundles the training hyperparameters.
type TrainConfig struct {
	Forest ml.ForestConfig
	CFS    ml.CFSConfig
	// CVFolds is the cross-validation fold count (paper: 10).
	CVFolds int
	// Seed drives balancing and fold assignment.
	Seed int64
	// SelectionSample caps the instances used for feature selection —
	// CFS is quadratic in features and linear in instances, and a
	// sample this size selects the same subsets in practice. 0 means
	// all instances.
	SelectionSample int
}

// DefaultTrainConfig mirrors the paper's setup: Random Forest with
// 10-fold cross-validation.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Forest:          ml.ForestConfig{Trees: 60, MinLeaf: 2, Seed: 1},
		CFS:             ml.CFSConfig{MaxStale: 5},
		CVFolds:         10,
		Seed:            1,
		SelectionSample: 4000,
	}
}

// TrainReport summarizes a detector's training run.
type TrainReport struct {
	// Selected features with their information gains (Tables 2/5).
	Selected []ml.RankedFeature
	// CV is the merged 10-fold cross-validation confusion matrix
	// (Tables 3/4 and 6/7).
	CV *ml.Confusion
	// ClassCounts is the label distribution of the training corpus.
	ClassCounts []int
}

// Train runs the paper's full §4 pipeline on a labelled dataset:
// feature selection (CfsSubsetEval + Best First), 10-fold stratified
// cross-validation with balanced training folds, and a final model
// trained on the balanced full set.
func Train(ds *ml.Dataset, cfg TrainConfig) (*Detector, *TrainReport, error) {
	if ds.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty training dataset")
	}
	if cfg.CVFolds < 2 {
		cfg.CVFolds = 10
	}
	r := stats.NewRand(cfg.Seed)

	// Feature selection runs on a balanced sample so the merit is not
	// dominated by the majority class.
	selDS := ds.Balance(r)
	if cfg.SelectionSample > 0 && selDS.Len() > cfg.SelectionSample {
		idx := r.Perm(selDS.Len())[:cfg.SelectionSample]
		selDS = selDS.Subset(idx)
	}
	selected := ml.CFSSelect(selDS, cfg.CFS)
	if len(selected) == 0 {
		// degenerate corpus: fall back to the top info-gain features
		for i, rf := range ml.RankByInfoGain(selDS) {
			if i >= 4 {
				break
			}
			selected = append(selected, rf.Name)
		}
	}
	if len(selected) == 0 {
		return nil, nil, fmt.Errorf("core: feature selection produced nothing")
	}

	reduced, err := ds.SelectFeatures(selected)
	if err != nil {
		return nil, nil, err
	}

	// report per-feature gains over the selected subset
	gainAll := ml.RankByInfoGain(selDS)
	gainByName := make(map[string]float64, len(gainAll))
	for _, g := range gainAll {
		gainByName[g.Name] = g.Gain
	}
	gains := make([]ml.RankedFeature, len(selected))
	for i, n := range selected {
		gains[i] = ml.RankedFeature{Name: n, Gain: gainByName[n]}
	}

	// calibrated CV: same folds, seeds, and confusion matrix as the
	// plain CrossValidate, plus the held-out confidence/correctness
	// curve the quality monitor compares live calibration against
	cv, cal := ml.CrossValidateCalibrated(reduced, cfg.CVFolds, cfg.Forest, cfg.Seed, 0, qualitymon.ConfBins)

	finalTrain := reduced.Balance(stats.NewRand(cfg.Seed + 1))
	forest := ml.TrainForest(finalTrain, cfg.Forest)
	// the drift baseline sketches the corpus at its natural class
	// distribution (reduced, not the balanced finalTrain): serve-time
	// traffic arrives unbalanced, and PSI must compare like with like
	forest.Baseline = qualitymon.CaptureBaseline(selected, reduced.X, reduced.Y, reduced.Classes, qualitymon.DefaultBins)
	forest.Baseline.Calibration = *cal

	det := &Detector{
		Forest:   forest,
		Selected: selected,
		Gains:    gains,
		full:     ds.Names,
	}
	det.indexSelected()
	rep := &TrainReport{
		Selected:    gains,
		CV:          cv,
		ClassCounts: ds.ClassCounts(),
	}
	return det, rep, nil
}

// Evaluate applies the trained detector to a dataset in the detector's
// full (unselected) schema — e.g. the encrypted corpus — and returns
// the confusion matrix (Tables 8–11).
func (d *Detector) Evaluate(ds *ml.Dataset) (*ml.Confusion, error) {
	reduced, err := ds.SelectFeatures(d.Selected)
	if err != nil {
		return nil, err
	}
	return ml.Evaluate(d.Forest, reduced), nil
}

// predictVectorConf classifies one raw feature vector given in the
// full schema and returns the forest's top-vote confidence with it.
func (d *Detector) predictVectorConf(raw []float64) (int, float64) {
	return d.Forest.PredictConf(d.project(raw))
}

// PredictScratch holds one detector's reusable batch buffers: the
// projected vectors the session evaluator fills (proj[i] views row i of
// projBuf), and the vote distributions and classes the forest pass
// leaves. A long-lived caller (an engine shard, through AnalyzeScratch)
// threads it through every batch so the steady state allocates
// nothing. The zero value is ready to use; a scratch is
// single-goroutine.
type PredictScratch struct {
	proj    [][]float64
	projBuf []float64
	dist    []float64
	out     []int
}

// grow returns b resized to n, reallocating only when capacity is
// exhausted — the amortized-zero-allocation idiom every scratch buffer
// here relies on.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// rows sizes the scratch for n projected vectors of this detector's
// Selected width and returns them for the featurizer to fill.
func (d *Detector) rows(s *PredictScratch, n int) [][]float64 {
	k := len(d.Selected)
	s.projBuf = grow(s.projBuf, n*k)
	s.proj = grow(s.proj, n)
	for i := range s.proj {
		s.proj[i] = s.projBuf[i*k : (i+1)*k]
	}
	return s.proj
}

// predictRows classifies the vectors rows handed out, tree-major, and
// appends each instance's top-vote confidence — read off the vote
// distributions the forest pass just left — to conf[:0]. The class
// indices alias the scratch.
func (d *Detector) predictRows(s *PredictScratch, conf []float64) ([]int, []float64) {
	n := len(s.proj)
	nc := len(d.Forest.Classes)
	s.dist = grow(s.dist, n*nc)
	s.out = grow(s.out, n)
	classes := d.Forest.PredictBatchInto(s.proj, s.dist, s.out)
	conf = grow(conf, n)
	for i, c := range classes {
		conf[i] = d.Forest.Confidence(s.dist[i*nc:(i+1)*nc], c)
	}
	return classes, conf
}

// project maps a full-schema vector onto the selected feature subset.
func (d *Detector) project(raw []float64) []float64 {
	dst := make([]float64, len(d.selIdx))
	for i, j := range d.selIdx {
		if j >= 0 {
			dst[i] = raw[j]
		}
	}
	return dst
}

// Save persists the detector (forest + schema).
func (d *Detector) Save(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "vqoe-detector %d %d\n", len(d.Selected), len(d.full)); err != nil {
		return err
	}
	for _, n := range d.Selected {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	for _, n := range d.full {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	return d.Forest.Save(w)
}

// maxSchemaNames bounds the two name counts of a detector header (the
// schemas here have under a hundred columns), so a hostile header
// cannot size an allocation.
const maxSchemaNames = 4096

// LoadDetector restores a detector written by Save. Like the forest
// inside it the file is outside input: header counts beyond
// maxSchemaNames, a selection that is not the forest's schema and a
// selected name missing from the full schema are errors.
func LoadDetector(r io.Reader) (*Detector, error) {
	var nSel, nFull int
	if _, err := fmt.Fscanf(r, "vqoe-detector %d %d\n", &nSel, &nFull); err != nil {
		return nil, fmt.Errorf("core: bad detector header: %w", err)
	}
	if nSel < 0 || nSel > maxSchemaNames || nFull < 0 || nFull > maxSchemaNames {
		return nil, fmt.Errorf("core: detector header counts %d/%d outside [0, %d]", nSel, nFull, maxSchemaNames)
	}
	// feature names may contain spaces, so Fscanf's %s cannot read
	// them; consume whole lines instead
	sel, err := readRawLines(r, nSel)
	if err != nil {
		return nil, err
	}
	full, err := readRawLines(r, nFull)
	if err != nil {
		return nil, err
	}
	forest, err := ml.LoadForest(r)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(sel, forest.Features) {
		return nil, fmt.Errorf("core: detector's %d selected features are not the %d its forest was trained on", len(sel), len(forest.Features))
	}
	det := &Detector{Forest: forest, Selected: sel, full: full}
	det.indexSelected()
	if i := slices.Index(det.selIdx, -1); i >= 0 {
		return nil, fmt.Errorf("core: selected feature %q is not in the detector's full schema", sel[i])
	}
	return det, nil
}

// LoadDetectorFile is LoadDetector on a model file written by
// qoetrain -save-stall / -save-rep.
func LoadDetectorFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	det, err := LoadDetector(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return det, nil
}

func readRawLines(r io.Reader, n int) ([]string, error) {
	out := make([]string, n)
	buf := make([]byte, 1)
	for i := range out {
		var line []byte
		for {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			if buf[0] == '\n' {
				break
			}
			line = append(line, buf[0])
		}
		out[i] = string(line)
	}
	return out, nil
}

// StallDetector wraps a Detector for the stall impairment.
type StallDetector struct{ Detector }

// TrainStall trains the stall model on a corpus (§4.1).
func TrainStall(c *workload.Corpus, cfg TrainConfig) (*StallDetector, *TrainReport, error) {
	det, rep, err := Train(BuildStallDataset(c), cfg)
	if err != nil {
		return nil, nil, err
	}
	return &StallDetector{Detector: *det}, rep, nil
}

// Predict classifies one session's stalling level.
func (d *StallDetector) Predict(obs features.SessionObs) features.StallLabel {
	l, _ := d.PredictConf(obs)
	return l
}

// PredictConf is Predict plus the forest's top-vote confidence.
func (d *StallDetector) PredictConf(obs features.SessionObs) (features.StallLabel, float64) {
	c, conf := d.predictVectorConf(features.StallFeatures(obs))
	return features.StallLabel(c), conf
}

// EvaluateCorpus applies the model to a labelled corpus (e.g. the
// encrypted study) and returns the confusion matrix.
func (d *StallDetector) EvaluateCorpus(c *workload.Corpus) (*ml.Confusion, error) {
	return d.Evaluate(BuildStallDataset(c))
}

// RepresentationDetector wraps a Detector for the average
// representation impairment.
type RepresentationDetector struct{ Detector }

// TrainRepresentation trains the representation model on a corpus's
// adaptive sessions (§4.2).
func TrainRepresentation(c *workload.Corpus, cfg TrainConfig) (*RepresentationDetector, *TrainReport, error) {
	det, rep, err := Train(BuildRepDataset(c), cfg)
	if err != nil {
		return nil, nil, err
	}
	return &RepresentationDetector{Detector: *det}, rep, nil
}

// Predict classifies one session's average representation.
func (d *RepresentationDetector) Predict(obs features.SessionObs) features.RepLabel {
	l, _ := d.PredictConf(obs)
	return l
}

// PredictConf is Predict plus the forest's top-vote confidence.
func (d *RepresentationDetector) PredictConf(obs features.SessionObs) (features.RepLabel, float64) {
	c, conf := d.predictVectorConf(features.RepFeatures(obs))
	return features.RepLabel(c), conf
}

// EvaluateCorpus applies the model to a labelled corpus.
func (d *RepresentationDetector) EvaluateCorpus(c *workload.Corpus) (*ml.Confusion, error) {
	return d.Evaluate(BuildRepDataset(c))
}
