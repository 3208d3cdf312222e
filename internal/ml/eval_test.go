package ml

import (
	"math"
	"strings"
	"testing"

	"vqoe/internal/qualitymon"
)

// paperStallMatrix reconstructs a tally with the row percentages of the
// paper's Table 4 over 1000/1000/1000 instances.
func paperStallMatrix() *qualitymon.Tally {
	c := qualitymon.NewTally([]string{"no stalls", "mild stalls", "severe stalls"})
	fill := func(actual int, row []int) {
		for pred, n := range row {
			for ; n > 0; n-- {
				c.Observe(actual, pred, 0.9)
			}
		}
	}
	fill(0, []int{978, 20, 2})
	fill(1, []int{147, 809, 44})
	fill(2, []int{42, 165, 793})
	return c
}

func TestConfusionAccuracy(t *testing.T) {
	c := paperStallMatrix()
	want := float64(978+809+793) / 3000
	if got := c.Accuracy(); math.Abs(got-want) > 1e-12 {
		t.Errorf("accuracy = %v, want %v", got, want)
	}
}

func TestConfusionPerClassMetrics(t *testing.T) {
	c := paperStallMatrix()
	if got := c.TPRate(0); math.Abs(got-0.978) > 1e-9 {
		t.Errorf("TPRate(no stalls) = %v", got)
	}
	if got := c.Recall(1); math.Abs(got-0.809) > 1e-9 {
		t.Errorf("Recall(mild) = %v", got)
	}
	// precision of class 0: 978 / (978+147+42)
	wantP := 978.0 / (978 + 147 + 42)
	if got := c.Precision(0); math.Abs(got-wantP) > 1e-9 {
		t.Errorf("Precision(no stalls) = %v, want %v", got, wantP)
	}
	// FP rate of class 0: (147+42) / 2000
	if got := c.FPRate(0); math.Abs(got-189.0/2000) > 1e-9 {
		t.Errorf("FPRate(no stalls) = %v", got)
	}
}

func TestConfusionWeighted(t *testing.T) {
	c := paperStallMatrix()
	// balanced classes → weighted TP rate equals the mean of the rates
	want := (0.978 + 0.809 + 0.793) / 3
	if got := c.Weighted(c.TPRate); math.Abs(got-want) > 1e-9 {
		t.Errorf("weighted TPRate = %v, want %v", got, want)
	}
}

func TestRowPercent(t *testing.T) {
	c := paperStallMatrix()
	rp := c.RowPercent()
	if math.Abs(rp[0][0]-97.8) > 1e-9 || math.Abs(rp[1][1]-80.9) > 1e-9 {
		t.Errorf("row percents wrong: %v", rp)
	}
}

func TestConfusionEmpty(t *testing.T) {
	c := qualitymon.NewTally([]string{"a", "b"})
	if c.Accuracy() != 0 || c.TPRate(0) != 0 || c.Precision(0) != 0 || c.FPRate(0) != 0 {
		t.Error("empty matrix metrics should be 0")
	}
	if c.Weighted(c.TPRate) != 0 {
		t.Error("empty weighted should be 0")
	}
}

func TestConfusionMerge(t *testing.T) {
	a := qualitymon.NewTally([]string{"x", "y"})
	a.Observe(0, 0, 0.9)
	a.Observe(1, 0, 0.6)
	b := qualitymon.NewTally([]string{"x", "y"})
	b.Observe(1, 1, 0.9)
	b.Observe(2, 1, 0.9)
	a.Merge(b)
	if a.Total() != 3 || a.Matrix[1][1] != 1 || a.OutOfRange != 1 {
		t.Errorf("merge wrong: %+v", a)
	}
	if a.Count[9] != 2 || a.Correct[9] != 2 || a.Count[6] != 1 || a.Correct[6] != 0 {
		t.Errorf("merged bins wrong: count %v correct %v", a.Count, a.Correct)
	}
}

func TestConfusionString(t *testing.T) {
	s := paperStallMatrix().String()
	for _, want := range []string{"TP Rate", "weighted avg.", "no stalls", "97.80%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestCrossValidateOnSeparableData(t *testing.T) {
	ds := linearlySeparable(400, 21)
	conf := CrossValidate(ds, 5, ForestConfig{Trees: 15, Seed: 1}, 9)
	if conf.Total() != int64(ds.Len()) {
		t.Errorf("CV tested %d of %d instances", conf.Total(), ds.Len())
	}
	if acc := conf.Accuracy(); acc < 0.95 {
		t.Errorf("CV accuracy %v too low for separable data", acc)
	}
}

func TestCrossValidateImbalanced(t *testing.T) {
	// 10:1 imbalance; the balancing step must keep minority recall up.
	ds := noisyThreeClass(660, 31)
	// drop most of class 2
	keep := []int{}
	dropped := 0
	for i := range ds.X {
		if ds.Y[i] == 2 && dropped < 180 {
			dropped++
			continue
		}
		keep = append(keep, i)
	}
	imb := ds.Subset(keep)
	conf := CrossValidate(imb, 5, ForestConfig{Trees: 15, Seed: 2}, 10)
	if rec := conf.Recall(2); rec < 0.6 {
		t.Errorf("minority recall %v too low despite balancing", rec)
	}
}
