package ml

import (
	"math"
	"runtime"
	"sync"

	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
)

// ForestConfig controls Random Forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 60).
	Trees int
	// MaxDepth bounds each tree (0 = unbounded).
	MaxDepth int
	// MinLeaf is the minimum leaf size (default 2).
	MinLeaf int
	// FeaturesPerSplit is the per-node feature subsample; 0 selects
	// ⌈√m⌉, the standard Random Forest choice.
	FeaturesPerSplit int
	// MaxThresholds caps split candidates per feature (default 64).
	MaxThresholds int
	// Seed makes training deterministic.
	Seed int64
}

func (c ForestConfig) withDefaults(numFeatures int) ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 60
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.FeaturesPerSplit <= 0 {
		c.FeaturesPerSplit = int(math.Ceil(math.Sqrt(float64(numFeatures))))
	}
	if c.MaxThresholds == 0 {
		c.MaxThresholds = 64
	}
	return c
}

// Forest is a trained Random Forest classifier. It is safe for
// concurrent prediction.
type Forest struct {
	Trees      []*Tree
	Features   []string // schema the forest was trained on
	Classes    []string
	numClasses int
	// Baseline is the training-time quality-monitoring reference
	// (feature quantile sketches, class priors, held-out calibration).
	// The core training path attaches it and Save persists it with the
	// model; nil on forests trained by hand or loaded from model files
	// written before baselines existed.
	Baseline *qualitymon.Baseline
}

// TrainForest trains a Random Forest on ds: each tree sees a bootstrap
// sample of the instances and examines a random feature subset at every
// split. Training parallelizes across available CPUs but remains
// deterministic for a given seed (each tree owns a derived source).
func TrainForest(ds *Dataset, cfg ForestConfig) *Forest {
	cfg = cfg.withDefaults(ds.NumFeatures())
	f := &Forest{
		Trees:      make([]*Tree, cfg.Trees),
		Features:   append([]string(nil), ds.Names...),
		Classes:    append([]string(nil), ds.Classes...),
		numClasses: ds.NumClasses(),
	}
	// Pre-derive one seed per tree from the master seed so the result
	// does not depend on goroutine scheduling.
	master := stats.NewRand(cfg.Seed)
	seeds := make([]int64, cfg.Trees)
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	treeCfg := TreeConfig{
		MaxDepth:         cfg.MaxDepth,
		MinLeaf:          cfg.MinLeaf,
		FeaturesPerSplit: cfg.FeaturesPerSplit,
		MaxThresholds:    cfg.MaxThresholds,
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				r := stats.NewRand(seeds[t])
				boot := bootstrap(ds, r)
				f.Trees[t] = TrainTree(boot, treeCfg, r)
			}
		}()
	}
	for t := 0; t < cfg.Trees; t++ {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	return f
}

func bootstrap(ds *Dataset, r *stats.Rand) *Dataset {
	n := ds.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	return ds.Subset(idx)
}

// Predict returns the majority-vote class for one instance.
func (f *Forest) Predict(x []float64) int {
	class, _ := f.PredictConf(x)
	return class
}

// maxInlineClasses bounds the stack-allocated distribution PredictConf
// uses; every model in this repo has ≤ 4 classes.
const maxInlineClasses = 8

// PredictConf returns the majority-vote class plus the forest's
// confidence in it (see Confidence).
func (f *Forest) PredictConf(x []float64) (int, float64) {
	var buf [maxInlineClasses]float64
	var dist []float64
	if f.numClasses <= maxInlineClasses {
		dist = buf[:f.numClasses]
	} else {
		dist = make([]float64, f.numClasses)
	}
	dist = f.accumulate(x, dist)
	best := argmax(dist)
	return best, f.Confidence(dist, best)
}

// Confidence is the forest's confidence in class given one instance's
// unnormalized votes (a row PredictBatchInto left in dist): the
// class's share of the tree votes.
func (f *Forest) Confidence(votes []float64, class int) float64 {
	return votes[class] / float64(len(f.Trees))
}

// Proba returns the mean class distribution over all trees.
func (f *Forest) Proba(x []float64) []float64 {
	return f.ProbaInto(x, make([]float64, f.numClasses))
}

// ProbaInto is Proba with a caller-owned output buffer: dist must have
// length numClasses (= len(Classes)) and is returned normalized. It
// performs no allocations.
func (f *Forest) ProbaInto(x []float64, dist []float64) []float64 {
	dist = f.accumulate(x, dist)
	// true division, not multiplication by a reciprocal: Proba must be
	// bit-identical to the pointer-walk reference accumulation
	n := float64(len(f.Trees))
	for c := range dist {
		dist[c] /= n
	}
	return dist
}

// accumulate sums the leaf distributions of every tree into dist
// (unnormalized votes).
func (f *Forest) accumulate(x []float64, dist []float64) []float64 {
	for c := range dist {
		dist[c] = 0
	}
	nc := int32(f.numClasses)
	for _, t := range f.Trees {
		ft := t.flat
		off := ft.leafOff(x)
		leaf := ft.dists[off : off+nc]
		for c, p := range leaf {
			dist[c] += p
		}
	}
	return dist
}

// batchChunk is the smallest instance range one batch worker takes;
// batches below twice this size run serially on the caller goroutine
// and perform zero allocations, which is the live engine's steady
// state (a shard's mailbox batch closes tens of sessions, not
// thousands).
const batchChunk = 256

// PredictBatchInto classifies a batch of instances into caller-owned
// buffers: dist must have length ≥ len(xs)·numClasses and out length
// ≥ len(xs). It returns out[:len(xs)] and leaves each instance's
// unnormalized votes in its row of dist. Sub-threshold batches
// allocate nothing; larger batches are split into instance ranges
// walked tree-major by a bounded worker pool (disjoint slices of
// dist/out, no merging).
func (f *Forest) PredictBatchInto(xs [][]float64, dist []float64, out []int) []int {
	n := len(xs)
	out = out[:n]
	if n == 0 {
		return out
	}
	dist = dist[:n*f.numClasses]
	workers := n / batchChunk
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers <= 1 {
		f.predictRange(xs, dist, out)
		return out
	}
	// slices are passed as arguments (not captured) so the serial path
	// above stays allocation-free: a captured dist/out would be moved
	// to the heap at function entry regardless of the branch taken
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	nc := f.numClasses
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(xs [][]float64, dist []float64, out []int) {
			defer wg.Done()
			f.predictRange(xs, dist, out)
		}(xs[lo:hi], dist[lo*nc:hi*nc], out[lo:hi])
	}
	wg.Wait()
	return out
}

// predictRange is the serial tree-major kernel — every tree is walked
// over the whole range before the next, so its node slab stays hot in
// cache: votes for xs are accumulated into dist (len(xs)·numClasses,
// overwritten) and the argmax classes written to out (len(xs)).
func (f *Forest) predictRange(xs [][]float64, dist []float64, out []int) {
	for i := range dist {
		dist[i] = 0
	}
	nc := int32(f.numClasses)
	for _, t := range f.Trees {
		ft := t.flat
		for i, x := range xs {
			off := ft.leafOff(x)
			leaf := ft.dists[off : off+nc]
			row := dist[int32(i)*nc : (int32(i)+1)*nc]
			for c, p := range leaf {
				row[c] += p
			}
		}
	}
	inc := int(nc)
	for i := range out {
		out[i] = argmax(dist[i*inc : (i+1)*inc])
	}
}

// PredictAll classifies every instance of ds and returns the
// predictions in row order.
func (f *Forest) PredictAll(ds *Dataset) []int {
	n := ds.Len()
	if n == 0 {
		return nil
	}
	return f.PredictBatchInto(ds.X, make([]float64, n*f.numClasses), make([]int, n))
}
