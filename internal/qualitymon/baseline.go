// Package qualitymon watches what the deployed models predict and
// whether it is still right. The paper's framework trains on one
// network (cleartext proxy logs) and runs on another (encrypted
// cellular sessions) — exactly the regime where input distributions
// drift away from the training set and a forest goes silently stale.
// This package captures a feature baseline at training time
// (per-selected-feature quantile sketch, class priors, held-out
// cross-validation Tally), persists it with the model, and compares
// the live traffic against it at serve time: per-feature Population
// Stability Index, prediction-prior shift, and — when delayed
// ground-truth labels arrive — a Tally of the matched outcomes, whose
// online accuracy and calibration error read against the held-out
// one. Degradation is flagged on fixed thresholds (PSI > 0.2, accuracy
// drop > N points) so a retrain/rollout loop has a tripwire instead of
// a hunch.
//
// The package depends only on internal/obs and the standard library so
// the ml layer can embed Baseline in its model wire format, and count
// its evaluations into a Tally, without an import cycle.
package qualitymon

import (
	"fmt"
	"math"
	"sort"
)

const (
	// BaselineVersion is written into persisted baselines; loaders use
	// it to detect wire-format evolution (models saved before quality
	// monitoring existed have no baseline at all and load as nil).
	BaselineVersion = 1
	// DefaultBins is the quantile-bin count of the feature sketches.
	DefaultBins = 10
	// ConfBins is the confidence-bin count of a Tally, the resolution
	// of ECE.
	ConfBins = 10
)

// Baseline is the training-time reference the live monitor compares
// against. It is captured from the reduced (CFS-selected) training
// matrix at its natural class distribution and persisted alongside the
// forest in the gob model file.
type Baseline struct {
	// Version is BaselineVersion at capture time.
	Version int
	// Features names the selected features, in the projected column
	// order serve-time vectors arrive in.
	Features []string
	// Classes is the label schema.
	Classes []string
	// Edges holds, per feature, the interior quantile edges (bins-1
	// ascending values); bin i covers (Edges[i-1], Edges[i]].
	Edges [][]float64
	// Expected holds, per feature, the training-set proportion that
	// falls in each bin. Computed by re-binning the training column
	// through the same Edges, so ties and duplicated edges are
	// reflected exactly (PSI of the training set against itself is 0).
	Expected [][]float64
	// Priors is the natural class distribution of the training corpus.
	Priors []float64
	// Calibration is the held-out tally of cross-validation, the
	// reference for ECE and accuracy drop.
	Calibration Tally
}

// CaptureBaseline sketches a training matrix: X is row-major with one
// column per name, Y holds class indices into classes. bins <= 1 uses
// DefaultBins.
func CaptureBaseline(names []string, X [][]float64, Y []int, classes []string, bins int) *Baseline {
	if bins <= 1 {
		bins = DefaultBins
	}
	b := &Baseline{
		Version:  BaselineVersion,
		Features: append([]string(nil), names...),
		Classes:  append([]string(nil), classes...),
		Edges:    make([][]float64, len(names)),
		Expected: make([][]float64, len(names)),
		Priors:   make([]float64, len(classes)),
	}
	col := make([]float64, len(X))
	for f := range names {
		for i, row := range X {
			col[i] = row[f]
		}
		b.Edges[f] = QuantileEdges(col, bins)
		counts := make([]int64, bins)
		for _, v := range col {
			counts[BinIndex(b.Edges[f], v)]++
		}
		b.Expected[f] = Proportions(counts)
	}
	for _, y := range Y {
		if y >= 0 && y < len(b.Priors) {
			b.Priors[y]++
		}
	}
	if n := float64(len(Y)); n > 0 {
		for i := range b.Priors {
			b.Priors[i] /= n
		}
	}
	return b
}

// Check reports whether a baseline read from a model file has the
// shape the monitor indexes by: one equal-length edge list and one
// bins-long expectation per feature of the model, one prior per class,
// and a calibration tally of that shape (Tally.check). A nil baseline
// (a pre-baseline model file) passes.
func (b *Baseline) Check(numFeatures, numClasses int) error {
	if b == nil {
		return nil
	}
	if len(b.Features) != numFeatures || len(b.Edges) != numFeatures || len(b.Expected) != numFeatures {
		return fmt.Errorf("%d names, %d edge lists, %d expectations for %d features",
			len(b.Features), len(b.Edges), len(b.Expected), numFeatures)
	}
	for f := range b.Edges {
		if len(b.Edges[f])+1 != b.Bins() || len(b.Expected[f]) != b.Bins() {
			return fmt.Errorf("feature %d has %d edges and %d expectations, want %d bins",
				f, len(b.Edges[f]), len(b.Expected[f]), b.Bins())
		}
	}
	if len(b.Priors) != numClasses {
		return fmt.Errorf("%d priors for %d classes", len(b.Priors), numClasses)
	}
	return b.Calibration.check(numClasses)
}

// Bins reports the feature-bin count (edges + 1); DefaultBins when the
// baseline has no features.
func (b *Baseline) Bins() int {
	if b == nil || len(b.Edges) == 0 {
		return DefaultBins
	}
	return len(b.Edges[0]) + 1
}

// QuantileEdges returns the bins-1 interior quantile edges of values
// (lower-value interpolation). Duplicate edges are legal — they only
// make the bins between them empty, and Expected is computed through
// the same edges so the comparison stays exact.
func QuantileEdges(values []float64, bins int) []float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	edges := make([]float64, bins-1)
	if len(sorted) == 0 {
		return edges
	}
	for i := 1; i < bins; i++ {
		idx := i * len(sorted) / bins
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		edges[i-1] = sorted[idx]
	}
	return edges
}

// BinIndex places v into its quantile bin: the first bin whose upper
// edge is >= v, with the last bin catching everything above the top
// edge. The linear scan beats a binary search at the ~9 edges the
// sketches use.
func BinIndex(edges []float64, v float64) int {
	i := 0
	for i < len(edges) && v > edges[i] {
		i++
	}
	return i
}

// Proportions normalizes counts to fractions (zeros when empty).
func Proportions(counts []int64) []float64 {
	out := make([]float64, len(counts))
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return out
	}
	n := float64(total)
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}

// psiEps floors a bin proportion before the log ratio so empty bins
// contribute a large-but-finite term instead of ±Inf.
const psiEps = 1e-4

// PSI is the Population Stability Index between two binned
// distributions (proportions, same binning):
//
//	PSI = Σ_b (observed_b − expected_b) · ln(observed_b / expected_b)
//
// Identical distributions yield exactly 0 (bins with equal proportions
// contribute nothing, before any epsilon flooring); every differing
// bin contributes a positive term. The conventional reading: < 0.1 no
// shift, 0.1–0.2 moderate, > 0.2 significant.
func PSI(expected, observed []float64) float64 {
	var psi float64
	for i := range expected {
		p, q := expected[i], observed[i]
		if p == q {
			continue
		}
		if p < psiEps {
			p = psiEps
		}
		if q < psiEps {
			q = psiEps
		}
		if p == q {
			continue
		}
		psi += (q - p) * math.Log(q/p)
	}
	return psi
}
