package ml

import (
	"testing"

	"vqoe/internal/stats"
)

func benchDataset(n, feats int) *Dataset {
	r := stats.NewRand(1)
	names := make([]string, feats)
	for i := range names {
		names[i] = "f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	ds := NewDataset(names, []string{"a", "b", "c"})
	for i := 0; i < n; i++ {
		row := make([]float64, feats)
		c := i % 3
		for j := range row {
			row[j] = r.Normal(float64(c*3), 2)
		}
		ds.Add(row, c)
	}
	return ds
}

func BenchmarkTrainForest(b *testing.B) {
	ds := benchDataset(1000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainForest(ds, ForestConfig{Trees: 20, Seed: int64(i)})
	}
}

// BenchmarkForestPredictFlat vs BenchmarkForestPredictPointer isolate
// the tentpole's inference claim: the same forest queried over a
// stream of distinct instances (the production shape — every session
// is a new feature vector, so tree nodes are not L1-resident between
// queries), slab walk against the original pointer-chasing walk.
const predictProbes = 512

func BenchmarkForestPredictFlat(b *testing.B) {
	ds := benchDataset(1000, 10)
	f := TrainForest(ds, ForestConfig{Trees: 40, Seed: 1})
	row := make([][]float64, 1)
	dist := make([]float64, f.numClasses)
	out := make([]int, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = ds.X[i%predictProbes]
		f.PredictBatchInto(row, dist, out)
	}
}

func BenchmarkForestPredictPointer(b *testing.B) {
	ds := benchDataset(1000, 10)
	f := TrainForest(ds, ForestConfig{Trees: 40, Seed: 1})
	dist := make([]float64, f.numClasses)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := ds.X[i%predictProbes]
		for c := range dist {
			dist[c] = 0
		}
		for _, t := range f.Trees {
			for c, p := range t.probaPointer(x) {
				dist[c] += p
			}
		}
	}
}

// BenchmarkForestPredictBatchInto is the engine batch path: an
// engine-sized (sub-threshold) batch through caller-owned buffers.
// The acceptance bar is 0 allocs/op.
func BenchmarkForestPredictBatchInto(b *testing.B) {
	ds := benchDataset(1000, 10)
	f := TrainForest(ds, ForestConfig{Trees: 40, Seed: 1})
	xs := ds.X[:128]
	dist := make([]float64, len(xs)*f.numClasses)
	out := make([]int, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatchInto(xs, dist, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(xs))/b.Elapsed().Seconds(), "instances/s")
}

// BenchmarkForestPredictWide is the same engine-sized batch through a
// forest past the threshold scan's limit — trees of more than 64
// leaves, grown on a larger sample — which keeps the preorder walk.
func BenchmarkForestPredictWide(b *testing.B) {
	ds := benchDataset(4096, 10)
	f := TrainForest(ds, ForestConfig{Trees: 40, Seed: 1})
	if f.scan != nil {
		b.Fatal("the forest selected the threshold scan")
	}
	xs := ds.X[:128]
	dist := make([]float64, len(xs)*f.numClasses)
	out := make([]int, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatchInto(xs, dist, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(xs))/b.Elapsed().Seconds(), "instances/s")
}

// BenchmarkForestPredictBatchParallel crosses the worker-pool
// threshold: a bulk batch split across the bounded pool.
func BenchmarkForestPredictBatchParallel(b *testing.B) {
	ds := benchDataset(4096, 10)
	f := TrainForest(ds, ForestConfig{Trees: 40, Seed: 1})
	xs := ds.X
	dist := make([]float64, len(xs)*f.numClasses)
	out := make([]int, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatchInto(xs, dist, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(xs))/b.Elapsed().Seconds(), "instances/s")
}

// BenchmarkTreeInduction measures single-tree induction at forest-node
// shape (bootstrap-sized sample, √m feature subsample) — the unit of
// work CrossValidate and CFSSelect repeat hundreds of times.
func BenchmarkTreeInduction(b *testing.B) {
	ds := benchDataset(2000, 10)
	r := stats.NewRand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainTree(ds, r)
	}
}

func BenchmarkInfoGain(b *testing.B) {
	ds := benchDataset(2000, 70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InfoGain(ds)
	}
}

func BenchmarkCFSSelect(b *testing.B) {
	ds := benchDataset(1000, 70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CFSSelect(ds)
	}
}

func BenchmarkCrossValidate(b *testing.B) {
	ds := benchDataset(1000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossValidate(ds, 5, ForestConfig{Trees: 10, Seed: 1}, 1)
	}
}
