package ml

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
)

// Confusion is a confusion matrix with the derived per-class metrics the
// paper reports (TP rate, FP rate, precision, recall — Tables 3/6/8/10).
type Confusion struct {
	Classes []string
	// Counts[actual][predicted]
	Counts [][]int
}

// NewConfusion allocates an empty matrix over the given classes.
func NewConfusion(classes []string) *Confusion {
	counts := make([][]int, len(classes))
	for i := range counts {
		counts[i] = make([]int, len(classes))
	}
	return &Confusion{Classes: classes, Counts: counts}
}

// Observe records one (actual, predicted) pair.
func (c *Confusion) Observe(actual, predicted int) {
	c.Counts[actual][predicted]++
}

// Merge adds another matrix (over the same classes) into this one.
func (c *Confusion) Merge(o *Confusion) {
	for i := range c.Counts {
		for j := range c.Counts[i] {
			c.Counts[i][j] += o.Counts[i][j]
		}
	}
}

// Total returns the number of observed instances.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy is the overall fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	correct := 0
	for i := range c.Counts {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(n)
}

func (c *Confusion) actualTotal(i int) int {
	n := 0
	for _, v := range c.Counts[i] {
		n += v
	}
	return n
}

func (c *Confusion) predictedTotal(j int) int {
	n := 0
	for i := range c.Counts {
		n += c.Counts[i][j]
	}
	return n
}

// TPRate is the true-positive rate (= recall) of class i.
func (c *Confusion) TPRate(i int) float64 {
	n := c.actualTotal(i)
	if n == 0 {
		return 0
	}
	return float64(c.Counts[i][i]) / float64(n)
}

// FPRate is the false-positive rate of class i: instances of other
// classes predicted as i, over all instances of other classes.
func (c *Confusion) FPRate(i int) float64 {
	fp := c.predictedTotal(i) - c.Counts[i][i]
	neg := c.Total() - c.actualTotal(i)
	if neg == 0 {
		return 0
	}
	return float64(fp) / float64(neg)
}

// Precision is TP / (TP + FP) for class i.
func (c *Confusion) Precision(i int) float64 {
	n := c.predictedTotal(i)
	if n == 0 {
		return 0
	}
	return float64(c.Counts[i][i]) / float64(n)
}

// Recall is TP over all actual instances of class i.
func (c *Confusion) Recall(i int) float64 { return c.TPRate(i) }

// Weighted averages a per-class metric weighted by class support, as in
// the paper's "weighted avg." rows.
func (c *Confusion) Weighted(metric func(int) float64) float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	var sum float64
	for i := range c.Classes {
		sum += metric(i) * float64(c.actualTotal(i))
	}
	return sum / float64(total)
}

// RowPercent returns the matrix rows normalized to percentages, the
// presentation used by the paper's confusion-matrix tables.
func (c *Confusion) RowPercent() [][]float64 {
	out := make([][]float64, len(c.Counts))
	for i, row := range c.Counts {
		out[i] = make([]float64, len(row))
		n := c.actualTotal(i)
		if n == 0 {
			continue
		}
		for j, v := range row {
			out[i][j] = 100 * float64(v) / float64(n)
		}
	}
	return out
}

// String renders the per-class metric table followed by the confusion
// matrix in row percentages.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %8s %9s %8s\n", "Class", "TP Rate", "FP Rate", "Precision", "Recall")
	for i, name := range c.Classes {
		fmt.Fprintf(&b, "%-16s %8.3f %8.3f %9.3f %8.3f\n",
			name, c.TPRate(i), c.FPRate(i), c.Precision(i), c.Recall(i))
	}
	fmt.Fprintf(&b, "%-16s %8.3f %8.3f %9.3f %8.3f\n", "weighted avg.",
		c.Weighted(c.TPRate), c.Weighted(c.FPRate), c.Weighted(c.Precision), c.Weighted(c.Recall))
	fmt.Fprintf(&b, "\n%-16s", "actual\\predicted")
	for _, name := range c.Classes {
		fmt.Fprintf(&b, " %12s", name)
	}
	b.WriteByte('\n')
	for i, row := range c.RowPercent() {
		fmt.Fprintf(&b, "%-16s", c.Classes[i])
		for _, v := range row {
			fmt.Fprintf(&b, " %11.2f%%", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Evaluate classifies every instance of test with the forest and
// accumulates a confusion matrix.
func Evaluate(f *Forest, test *Dataset) *Confusion {
	conf := NewConfusion(test.Classes)
	pred := f.PredictAll(test)
	for i, p := range pred {
		conf.Observe(test.Y[i], p)
	}
	return conf
}

// CrossValidate performs stratified k-fold cross-validation: for each
// fold it balances the training split (undersampling to the minority
// class, per the paper's protocol), trains a forest and tests on the
// held-out fold at its natural class distribution. The per-fold
// matrices are merged in fold order.
//
// Folds run concurrently up to parallelism workers; 0 (or negative)
// means one per CPU and 1 forces serial execution. Every fold's
// randomness — balancing and forest seeds — is derived up front from
// the master seed in fold order, so the merged matrix is identical at
// every parallelism level (the property TestCrossValidateParallelMatchesSerial
// locks in). Fold-parallelism is what keeps the retraining loops
// (qoetrain, CFS candidate evaluation, the Table 3/6 benchmarks) CPU
// bound instead of serialized on one fold at a time.
func CrossValidate(ds *Dataset, k int, cfg ForestConfig, seed int64, parallelism int) *Confusion {
	conf, _ := crossValidate(ds, k, cfg, seed, parallelism, 0)
	return conf
}

// CrossValidateCalibrated is CrossValidate plus a held-out calibration
// curve: every test-fold prediction's confidence (top-vote fraction)
// and correctness is accumulated into a qualitymon.CalibrationCurve
// with the given bin count (qualitymon.ConfBins when <= 0). The
// confusion matrix is identical to CrossValidate's — both argmax the
// same unnormalized vote accumulation — and the curve is merged in
// fold order, so the result is deterministic at every parallelism
// level. This is the calibration reference the training path persists
// in the model baseline.
func CrossValidateCalibrated(ds *Dataset, k int, cfg ForestConfig, seed int64, parallelism, bins int) (*Confusion, *qualitymon.CalibrationCurve) {
	if bins <= 0 {
		bins = qualitymon.ConfBins
	}
	return crossValidate(ds, k, cfg, seed, parallelism, bins)
}

// crossValidate is the shared fold loop; bins > 0 additionally builds
// the calibration curve. Fold randomness — fold assignment, balance
// seeds, forest seeds — is derived exactly as before calibration
// existed, so matrices are unchanged against prior releases.
func crossValidate(ds *Dataset, k int, cfg ForestConfig, seed int64, parallelism, bins int) (*Confusion, *qualitymon.CalibrationCurve) {
	r := stats.NewRand(seed)
	folds := ds.StratifiedFolds(k, r)
	// per-fold balance seeds, drawn in fold order so execution order
	// cannot perturb the streams
	balSeeds := make([]int64, len(folds))
	for i := range balSeeds {
		balSeeds[i] = r.Int63()
	}

	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(folds) {
		parallelism = len(folds)
	}

	confs := make([]*Confusion, len(folds))
	cals := make([]*qualitymon.CalibrationCurve, len(folds))
	runFold := func(f int) {
		trainIdx, testIdx := Split(folds, f)
		train := ds.Subset(trainIdx).Balance(stats.NewRand(balSeeds[f]))
		if train.Len() == 0 {
			return
		}
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed + int64(f)
		forest := TrainForest(train, foldCfg)
		test := ds.Subset(testIdx)
		conf := NewConfusion(ds.Classes)
		var cal *qualitymon.CalibrationCurve
		if bins > 0 {
			cal = qualitymon.NewCalibrationCurve(bins)
		}
		// per-instance vote accumulation: same tree-order float
		// additions as the batch kernel, so the argmax — and with it
		// the matrix — is bit-identical to Evaluate's
		for i, x := range test.X {
			p, c := forest.PredictConf(x)
			conf.Observe(test.Y[i], p)
			if cal != nil {
				cal.Observe(c, p == test.Y[i])
			}
		}
		confs[f], cals[f] = conf, cal
	}

	if parallelism <= 1 {
		for f := range folds {
			runFold(f)
		}
	} else {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < parallelism; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := range jobs {
					runFold(f)
				}
			}()
		}
		for f := range folds {
			jobs <- f
		}
		close(jobs)
		wg.Wait()
	}

	conf := NewConfusion(ds.Classes)
	for _, c := range confs {
		if c != nil {
			conf.Merge(c)
		}
	}
	if bins <= 0 {
		return conf, nil
	}
	cal := qualitymon.NewCalibrationCurve(bins)
	for _, c := range cals {
		if c != nil {
			cal.Merge(c)
		}
	}
	return conf, cal
}
