package ml

import (
	"runtime"
	"sync"

	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
)

// ForestConfig controls Random Forest training. Every tree is grown by
// TrainTree's fixed rules.
type ForestConfig struct {
	// Trees is the ensemble size (default 60).
	Trees int
	// Seed makes training deterministic.
	Seed int64
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
	// scan is the threshold-scan form (scan.go) the forest predicts
	// by, nil when it is too wide for one and is walked instead. The
	// only two constructors, TrainForest and LoadForest, set it last,
	// from the trees alone.
	scan *scanTables
}

// TrainForest trains a Random Forest on ds: each tree sees a bootstrap
// sample of the instances and examines a random feature subset at every
// split. Training parallelizes across available CPUs but remains
// deterministic for a given seed (each tree owns a derived source).
func TrainForest(ds *Dataset, cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 60
	}
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
				f.Trees[t] = TrainTree(boot, r)
			}
		}()
	}
	for t := 0; t < cfg.Trees; t++ {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	f.scan = newScanTables(f.Trees, f.numClasses)
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

// Confidence is the forest's confidence in class given one instance's
// unnormalized votes (a row PredictBatchInto left in dist): the
// class's share of the tree votes.
func (f *Forest) Confidence(votes []float64, class int) float64 {
	return votes[class] / float64(len(f.Trees))
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
// that a bounded worker pool scores by predictRange (disjoint slices
// of dist/out, no merging).
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

// predictRange is the serial kernel: votes for xs are accumulated into
// dist (len(xs)·numClasses, overwritten) and the argmax classes written
// to out (len(xs)). A forest with scan tables is scored by the
// threshold scan, any other by walkRange. Both sum the trees' leaf
// distributions in tree order, so they give the same votes bit for bit.
func (f *Forest) predictRange(xs [][]float64, dist []float64, out []int) {
	if f.scan != nil {
		f.scan.predictRange(xs, dist, out, f.numClasses)
		return
	}
	f.walkRange(xs, dist, out)
}

// walkRange is predictRange's walk, tree-major: every tree crosses the
// whole range before the next, so its node slab stays hot in cache.
func (f *Forest) walkRange(xs [][]float64, dist []float64, out []int) {
	for i := range dist {
		dist[i] = 0
	}
	nc := int32(f.numClasses)
	for _, t := range f.Trees {
		for i, x := range xs {
			off := t.leafOff(x)
			leaf := t.dists[off : off+nc]
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
// predictions in row order with the vote rows PredictBatchInto left
// (numClasses per instance).
func (f *Forest) PredictAll(ds *Dataset) (pred []int, votes []float64) {
	n := ds.Len()
	if n == 0 {
		return nil, nil
	}
	votes = make([]float64, n*f.numClasses)
	return f.PredictBatchInto(ds.X, votes, make([]int, n)), votes
}
