package ml

import (
	"runtime"
	"sync"

	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
)

// Evaluate classifies every instance of test with the forest and
// tallies each prediction with its confidence, the winning class's
// share of the tree votes — the number the engine serves.
func Evaluate(f *Forest, test *Dataset) *qualitymon.Tally {
	t := qualitymon.NewTally(test.Classes)
	pred, votes := f.PredictAll(test)
	nc := f.numClasses
	for i, p := range pred {
		t.Observe(test.Y[i], p, f.Confidence(votes[i*nc:(i+1)*nc], p))
	}
	return t
}

// CrossValidate performs stratified k-fold cross-validation: for each
// fold it balances the training split (undersampling to the minority
// class, per the paper's protocol), trains a forest and Evaluates it on
// the held-out fold at its natural class distribution. The per-fold
// tallies are merged in fold order; the result is both the paper's CV
// matrix and the held-out calibration reference the training path
// persists in the model baseline.
//
// Folds run concurrently on min(GOMAXPROCS, k) workers. Every fold's
// randomness — balancing and forest seeds — is derived up front from
// the master seed in fold order, and the fold order fixes the order
// of the confidence sums, so the merged tally is identical at every
// worker count (the property TestCrossValidateParallelMatchesSerial
// locks in). Fold-parallelism is what keeps the retraining loops
// (qoereport, CFS candidate evaluation, the Table 3/6 benchmarks) CPU
// bound instead of serialized on one fold at a time.
func CrossValidate(ds *Dataset, k int, cfg ForestConfig, seed int64) *qualitymon.Tally {
	return crossValidate(ds, k, cfg, seed, 0)
}

// crossValidate is the fold loop on up to parallelism workers (<= 0:
// one per CPU; 1: serial).
func crossValidate(ds *Dataset, k int, cfg ForestConfig, seed int64, parallelism int) *qualitymon.Tally {
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

	tallies := make([]*qualitymon.Tally, len(folds))
	runFold := func(f int) {
		trainIdx, testIdx := Split(folds, f)
		train := ds.Subset(trainIdx).Balance(stats.NewRand(balSeeds[f]))
		if train.Len() == 0 {
			return
		}
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed + int64(f)
		tallies[f] = Evaluate(TrainForest(train, foldCfg), ds.Subset(testIdx))
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

	t := qualitymon.NewTally(ds.Classes)
	for _, ft := range tallies {
		if ft != nil {
			t.Merge(ft)
		}
	}
	return t
}
