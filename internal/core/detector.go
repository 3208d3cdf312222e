package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"

	"vqoe/internal/ml"
	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
)

// Detector is a trained Random Forest classifier over a selected
// feature subset, covering both the stall and the representation
// models (they differ only in feature set and labels).
type Detector struct {
	Forest *ml.Forest
	// Selected is the CFS-chosen feature subset, ordered by gain.
	Selected []string
	// full is the feature schema the raw vectors arrive in.
	full []string
	// selIdx maps Selected positions to full-schema columns (-1 when a
	// name is absent): the columns the session evaluator fills this
	// detector's rows from.
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

// TrainConfig bundles the training hyperparameters. Forest.Seed is
// the one training seed: it draws the balancing, the selection sample
// and the folds as well as the forest.
type TrainConfig struct {
	Forest ml.ForestConfig
	// CVFolds is the cross-validation fold count (paper: 10).
	CVFolds int
}

// selectionSample caps the instances used for feature selection — CFS
// is quadratic in features and linear in instances, and a sample this
// size selects the same subsets in practice.
const selectionSample = 4000

// DefaultTrainConfig mirrors the paper's setup: Random Forest with
// 10-fold cross-validation.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Forest:  ml.ForestConfig{Trees: 60, Seed: 1},
		CVFolds: 10,
	}
}

// TrainReport summarizes a detector's training run.
type TrainReport struct {
	// Selected features with their information gains (Tables 2/5).
	Selected []ml.RankedFeature
	// CV is the merged 10-fold cross-validation tally (Tables 3/4 and
	// 6/7). It is the forest baseline's Calibration, not a copy.
	CV *qualitymon.Tally
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
	r := stats.NewRand(cfg.Forest.Seed)

	// Feature selection runs on a balanced sample so the merit is not
	// dominated by the majority class.
	selDS := ds.Balance(r)
	if selDS.Len() > selectionSample {
		idx := r.Perm(selDS.Len())[:selectionSample]
		selDS = selDS.Subset(idx)
	}
	selected := ml.CFSSelect(selDS)
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

	finalTrain := reduced.Balance(stats.NewRand(cfg.Forest.Seed + 1))
	forest := ml.TrainForest(finalTrain, cfg.Forest)
	// the drift baseline sketches the corpus at its natural class
	// distribution (reduced, not the balanced finalTrain): serve-time
	// traffic arrives unbalanced, and PSI must compare like with like
	forest.Baseline = qualitymon.CaptureBaseline(selected, reduced.X, reduced.Y, reduced.Classes, qualitymon.DefaultBins)
	// cross-validation's held-out tally is both the CV report and the
	// reference the quality monitor compares live accuracy and
	// calibration against
	forest.Baseline.Calibration = *ml.CrossValidate(reduced, cfg.CVFolds, cfg.Forest, cfg.Forest.Seed)

	det := &Detector{
		Forest:   forest,
		Selected: selected,
		full:     ds.Names,
	}
	det.indexSelected()
	return det, &TrainReport{Selected: gains, CV: &forest.Baseline.Calibration}, nil
}

// Evaluate applies the trained detector to a dataset in the detector's
// full (unselected) schema — e.g. the encrypted corpus — and returns
// its tally (Tables 8–11).
func (d *Detector) Evaluate(ds *ml.Dataset) (*qualitymon.Tally, error) {
	reduced, err := ds.SelectFeatures(d.Selected)
	if err != nil {
		return nil, err
	}
	return ml.Evaluate(d.Forest, reduced), nil
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

// predictRows classifies the vectors rows handed out in one
// PredictBatchInto pass and appends each instance's top-vote
// confidence — read off the vote distributions the forest pass just
// left — to conf[:0]. The class indices alias the scratch.
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
// qoereport -save-stall / -save-rep, for a slot that featurizes
// sessions into schema (features.StallFeatureNames or RepFeatureNames):
// a detector trained on any other schema — a swapped or foreign file —
// is an error, not a misprediction.
func LoadDetectorFile(path string, schema []string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	det, err := LoadDetector(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !slices.Equal(det.full, schema) {
		return nil, fmt.Errorf("%s: model trained on a %d-feature schema, not the %d-feature schema of its slot", path, len(det.full), len(schema))
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
