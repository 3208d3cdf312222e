package qualitymon

import (
	"fmt"
	"math"
	"strings"
)

// Tally counts a classifier's outcomes: which class it predicted for
// which actual class, and how confident it was. It is the one measure
// of correctness here — cross-validation and the encrypted evaluation
// (the paper's Tables 3–11), the held-out reference a model's Baseline
// persists, and the live label matcher's online accuracy all count
// into it — so accuracy, the per-class rates and ECE are each defined
// once, below. Observe and Merge are not safe for concurrent use.
//
// The confidence bins keep the field names of the calibration curve
// model files carried before the matrix was added: gob matches fields
// by name, so a file saved with the matrix loads in a binary that only
// knows the bins, and an older file (bins only) loads here with an
// empty matrix. Accuracy and Total read the bins for that reason.
type Tally struct {
	Classes []string
	// Matrix counts in-range observations, [actual][predicted].
	Matrix [][]int64
	// Count, ConfSum and Correct split the same observations into
	// ConfBins equal-width confidence bins: how many landed in each,
	// their summed confidence, and how many were correct. Σ Count is
	// the matrix total and Σ Correct its trace.
	Count   []int64
	ConfSum []float64
	Correct []int64
	// OutOfRange counts observations whose actual or predicted class
	// lies outside Classes (labels are outside input); they are in
	// neither the matrix nor the bins.
	OutOfRange int64
}

// NewTally allocates an empty tally over the given classes.
func NewTally(classes []string) *Tally {
	m := make([][]int64, len(classes))
	for i := range m {
		m[i] = make([]int64, len(classes))
	}
	return &Tally{
		Classes: classes,
		Matrix:  m,
		Count:   make([]int64, ConfBins),
		ConfSum: make([]float64, ConfBins),
		Correct: make([]int64, ConfBins),
	}
}

// ConfBin maps a confidence in [0,1] to one of bins equal-width bins
// (clamped; confidence 1.0 lands in the top bin).
func ConfBin(conf float64, bins int) int {
	i := int(conf * float64(bins))
	if i < 0 {
		return 0
	}
	if i >= bins {
		return bins - 1
	}
	return i
}

// Observe records one prediction with its confidence.
func (t *Tally) Observe(actual, predicted int, conf float64) {
	nc := len(t.Matrix)
	if actual < 0 || actual >= nc || predicted < 0 || predicted >= nc {
		t.OutOfRange++
		return
	}
	t.Matrix[actual][predicted]++
	b := ConfBin(conf, len(t.Count))
	t.Count[b]++
	t.ConfSum[b] += conf
	if actual == predicted {
		t.Correct[b]++
	}
}

// Merge adds another tally over the same classes into this one.
func (t *Tally) Merge(o *Tally) {
	for i := range t.Matrix {
		for j := range t.Matrix[i] {
			t.Matrix[i][j] += o.Matrix[i][j]
		}
	}
	for b := range t.Count {
		t.Count[b] += o.Count[b]
		t.ConfSum[b] += o.ConfSum[b]
		t.Correct[b] += o.Correct[b]
	}
	t.OutOfRange += o.OutOfRange
}

// check reports whether a tally read from a model file has the shape
// the metrics index by: three equal bin columns, and classes and a
// square matrix over numClasses (both empty in a file saved before the
// matrix existed).
func (t *Tally) check(numClasses int) error {
	if len(t.ConfSum) != len(t.Count) || len(t.Correct) != len(t.Count) {
		return fmt.Errorf("calibration columns of %d, %d and %d bins", len(t.Count), len(t.ConfSum), len(t.Correct))
	}
	if len(t.Classes) != 0 && len(t.Classes) != numClasses {
		return fmt.Errorf("tally of %d classes for %d", len(t.Classes), numClasses)
	}
	if len(t.Matrix) != 0 && len(t.Matrix) != numClasses {
		return fmt.Errorf("tally matrix of %d rows for %d classes", len(t.Matrix), numClasses)
	}
	for i, row := range t.Matrix {
		if len(row) != numClasses {
			return fmt.Errorf("tally matrix row %d has %d columns for %d classes", i, len(row), numClasses)
		}
	}
	return nil
}

// Total is the number of in-range observations.
func (t *Tally) Total() int64 {
	var n int64
	for _, v := range t.Count {
		n += v
	}
	return n
}

// Accuracy is the overall fraction of correct predictions.
func (t *Tally) Accuracy() float64 {
	var n, correct int64
	for b, v := range t.Count {
		n += v
		correct += t.Correct[b]
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}

func (t *Tally) actualTotal(i int) int64 {
	var n int64
	for _, v := range t.Matrix[i] {
		n += v
	}
	return n
}

func (t *Tally) predictedTotal(j int) int64 {
	var n int64
	for i := range t.Matrix {
		n += t.Matrix[i][j]
	}
	return n
}

// TPRate is the true-positive rate (= recall) of class i.
func (t *Tally) TPRate(i int) float64 {
	n := t.actualTotal(i)
	if n == 0 {
		return 0
	}
	return float64(t.Matrix[i][i]) / float64(n)
}

// FPRate is the false-positive rate of class i: instances of other
// classes predicted as i, over all instances of other classes.
func (t *Tally) FPRate(i int) float64 {
	fp := t.predictedTotal(i) - t.Matrix[i][i]
	neg := t.Total() - t.actualTotal(i)
	if neg == 0 {
		return 0
	}
	return float64(fp) / float64(neg)
}

// Precision is TP / (TP + FP) for class i.
func (t *Tally) Precision(i int) float64 {
	n := t.predictedTotal(i)
	if n == 0 {
		return 0
	}
	return float64(t.Matrix[i][i]) / float64(n)
}

// Recall is TP over all actual instances of class i.
func (t *Tally) Recall(i int) float64 { return t.TPRate(i) }

// Weighted averages a per-class metric weighted by class support, as in
// the paper's "weighted avg." rows.
func (t *Tally) Weighted(metric func(int) float64) float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	var sum float64
	for i := range t.Classes {
		sum += metric(i) * float64(t.actualTotal(i))
	}
	return sum / float64(total)
}

// RowPercent returns the matrix rows normalized to percentages, the
// presentation used by the paper's confusion-matrix tables.
func (t *Tally) RowPercent() [][]float64 {
	out := make([][]float64, len(t.Matrix))
	for i, row := range t.Matrix {
		out[i] = make([]float64, len(row))
		n := t.actualTotal(i)
		if n == 0 {
			continue
		}
		for j, v := range row {
			out[i][j] = 100 * float64(v) / float64(n)
		}
	}
	return out
}

// ECE is the expected calibration error: the support-weighted mean
// absolute gap between each bin's accuracy and its mean confidence,
//
//	ECE = Σ_b (n_b / N) · |acc_b − conf̄_b|
//
// 0 means the model's confidence matches its hit rate exactly.
func (t *Tally) ECE() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	var ece float64
	for b, n := range t.Count {
		if n == 0 {
			continue
		}
		acc := float64(t.Correct[b]) / float64(n)
		conf := t.ConfSum[b] / float64(n)
		ece += float64(n) / float64(total) * math.Abs(acc-conf)
	}
	return ece
}

// String renders the per-class metric table followed by the confusion
// matrix in row percentages.
func (t *Tally) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %8s %9s %8s\n", "Class", "TP Rate", "FP Rate", "Precision", "Recall")
	for i, name := range t.Classes {
		fmt.Fprintf(&b, "%-16s %8.3f %8.3f %9.3f %8.3f\n",
			name, t.TPRate(i), t.FPRate(i), t.Precision(i), t.Recall(i))
	}
	fmt.Fprintf(&b, "%-16s %8.3f %8.3f %9.3f %8.3f\n", "weighted avg.",
		t.Weighted(t.TPRate), t.Weighted(t.FPRate), t.Weighted(t.Precision), t.Weighted(t.Recall))
	fmt.Fprintf(&b, "\n%-16s", "actual\\predicted")
	for _, name := range t.Classes {
		fmt.Fprintf(&b, " %12s", name)
	}
	b.WriteByte('\n')
	for i, row := range t.RowPercent() {
		fmt.Fprintf(&b, "%-16s", t.Classes[i])
		for _, v := range row {
			fmt.Fprintf(&b, " %11.2f%%", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
