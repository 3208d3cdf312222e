package ml

import "sort"

// ROC analysis for binary classifiers: the paper's related work
// (Prometheus, [15]) frames buffering detection as a binary problem,
// and accuracy alone hides the operating-point trade-off an operator
// tunes (alarm on more sessions vs. fewer false alarms).

// ROCPoint is one operating point of a score threshold sweep.
type ROCPoint struct {
	Threshold float64
	TPR       float64 // true-positive rate at this threshold
	FPR       float64 // false-positive rate
}

// ROC computes the receiver operating characteristic of a scored
// binary problem: scores[i] is the classifier's confidence that
// instance i is positive, labels[i] the truth. Points are ordered by
// increasing FPR.
func ROC(scores []float64, labels []bool) []ROCPoint {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	var pos, neg int
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil
	}

	pts := []ROCPoint{{Threshold: scores[idx[0]] + 1, TPR: 0, FPR: 0}}
	tp, fp := 0, 0
	for i := 0; i < n; i++ {
		j := idx[i]
		if labels[j] {
			tp++
		} else {
			fp++
		}
		// emit a point only when the score changes (ties share a point)
		if i+1 < n && scores[idx[i+1]] == scores[j] {
			continue
		}
		pts = append(pts, ROCPoint{
			Threshold: scores[j],
			TPR:       float64(tp) / float64(pos),
			FPR:       float64(fp) / float64(neg),
		})
	}
	return pts
}

// AUC integrates the ROC curve by the trapezoid rule. 0.5 is chance,
// 1.0 perfect ranking.
func AUC(pts []ROCPoint) float64 {
	if len(pts) < 2 {
		return 0
	}
	var area float64
	for i := 1; i < len(pts); i++ {
		area += (pts[i].FPR - pts[i-1].FPR) * (pts[i].TPR + pts[i-1].TPR) / 2
	}
	return area
}

// BinaryScores extracts the positive-class probability of every
// instance from a forest — its share of the tree votes one
// PredictAll pass leaves — paired with the boolean truth; class
// `positive` names the positive label index.
func BinaryScores(f *Forest, ds *Dataset, positive int) (scores []float64, labels []bool) {
	n, nc := ds.Len(), f.numClasses
	_, votes := f.PredictAll(ds)
	scores = make([]float64, n)
	labels = make([]bool, n)
	for i := range scores {
		scores[i] = f.Confidence(votes[i*nc:(i+1)*nc], positive)
		labels[i] = ds.Y[i] == positive
	}
	return scores, labels
}
