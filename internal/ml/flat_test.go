package ml

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vqoe/internal/stats"
)

// randomDataset builds a dataset with randomized shape: nc classes,
// m features, gaussian clusters with enough overlap that trees grow
// real depth.
func randomDataset(r *stats.Rand, n, m, nc int) *Dataset {
	return spreadDataset(r, n, m, nc, 1.5)
}

// spreadDataset is randomDataset with the clusters' standard deviation
// sd: class means sit 2 apart, so a small sd gives shallow trees and a
// large one deep trees.
func spreadDataset(r *stats.Rand, n, m, nc int, sd float64) *Dataset {
	names := make([]string, m)
	for i := range names {
		names[i] = "f" + string(rune('a'+i%26)) + string(rune('0'+i/26%10))
	}
	classes := make([]string, nc)
	for i := range classes {
		classes[i] = string(rune('A' + i))
	}
	ds := NewDataset(names, classes)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		row := make([]float64, m)
		for j := range row {
			row[j] = r.Normal(float64(c*2), sd)
		}
		ds.Add(row, c)
	}
	return ds
}

// randomProbe draws a query point spanning the training range and
// beyond, including exact threshold-adjacent values.
func randomProbe(r *stats.Rand, m int) []float64 {
	x := make([]float64, m)
	for j := range x {
		x[j] = r.Normal(3, 5)
	}
	return x
}

// probaPointer is the pointer-chasing walk over the wire form of a
// tree (the shape a model file stores): the reference the slab walk —
// the only one non-test code has — is property-tested against.
func (t *Tree) probaPointer(x []float64) []float64 {
	n := t.toDTO(0)
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Dist
}

// pointerVotes is the reference forest walk: every tree's leaf
// distribution by the pointer walk, summed in tree order.
func (f *Forest) pointerVotes(x []float64) []float64 {
	votes := make([]float64, f.numClasses)
	for _, t := range f.Trees {
		for c, p := range t.probaPointer(x) {
			votes[c] += p
		}
	}
	return votes
}

// predictOne is PredictBatchInto on a batch of one: x's class and its
// unnormalized votes.
func (f *Forest) predictOne(x []float64) (int, []float64) {
	votes := make([]float64, f.numClasses)
	return f.PredictBatchInto([][]float64{x}, votes, make([]int, 1))[0], votes
}

// TestFlatMatchesPointerProperty is the slab walk's equivalence
// property: over randomized forests on randomized data (size, width,
// class count, cluster spread) and randomized inputs, the flattened
// slab walk must agree bit-for-bit with the pointer-chasing reference
// walk — per tree (the leaf leafOff lands on) and per forest
// (PredictBatchInto's votes and classes, one row and whole batches).
// The draws must span tree shapes from a lone leaf to more than 7
// levels deep.
func TestFlatMatchesPointerProperty(t *testing.T) {
	r := stats.NewRand(71)
	minDepth, maxDepth := maxTreeDepth, 0
	for trial := 0; trial < 8; trial++ {
		n := 100 + r.Intn(400)
		m := 2 + r.Intn(8)
		nc := 1 + r.Intn(4) // one class grows single-leaf trees
		ds := spreadDataset(r, n, m, nc, 0.2+3*r.Float64())
		f := TrainForest(ds, ForestConfig{Trees: 3 + r.Intn(10), Seed: r.Int63()})
		for _, tr := range f.Trees {
			d := depth(tr.toDTO(0))
			minDepth, maxDepth = min(minDepth, d), max(maxDepth, d)
		}

		for probe := 0; probe < 50; probe++ {
			x := randomProbe(r, m)
			for ti, tr := range f.Trees {
				off := tr.leafOff(x)
				flat := tr.dists[off : off+int32(f.numClasses)]
				ptr := tr.probaPointer(x)
				if len(flat) != len(ptr) {
					t.Fatalf("trial %d tree %d: dist lengths %d vs %d", trial, ti, len(flat), len(ptr))
				}
				for c := range flat {
					if flat[c] != ptr[c] {
						t.Fatalf("trial %d tree %d class %d: flat %v != pointer %v",
							trial, ti, c, flat[c], ptr[c])
					}
				}
			}
			// forest-level agreement: accumulate by pointer walk and
			// compare with a one-row batch's votes, bit for bit (same
			// summation order: tree 0..T-1)
			want := f.pointerVotes(x)
			class, got := f.predictOne(x)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("trial %d: forest votes[%d] flat %v != pointer %v", trial, c, got[c], want[c])
				}
			}
			if class != argmax(want) {
				t.Fatalf("trial %d: class %d, pointer argmax %d", trial, class, argmax(want))
			}
		}

		// a whole batch agrees with one-row batches, including the
		// caller buffers reused across calls
		probes := make([][]float64, 300)
		for i := range probes {
			probes[i] = randomProbe(r, m)
		}
		dist := make([]float64, len(probes)*f.numClasses)
		out := make([]int, len(probes))
		for pass := 0; pass < 2; pass++ {
			into := f.PredictBatchInto(probes, dist, out)
			for i, x := range probes {
				if want, _ := f.predictOne(x); into[i] != want {
					t.Fatalf("trial %d pass %d instance %d: into=%d single=%d",
						trial, pass, i, into[i], want)
				}
			}
		}
	}
	if minDepth != 0 || maxDepth <= 7 {
		t.Errorf("tree depths span %d..%d, want a single leaf and a tree deeper than 7", minDepth, maxDepth)
	}
}

// TestPredictBatchIntoParallelMatchesSerial drives batches on both
// sides of every worker-count boundary (one worker per 256 instances)
// and checks classes and confidences against one-row batches, with the
// pool available and on a single CPU.
func TestPredictBatchIntoParallelMatchesSerial(t *testing.T) {
	r := stats.NewRand(5)
	ds := randomDataset(r, 500, 6, 3)
	f := TrainForest(ds, ForestConfig{Trees: 12, Seed: 2})
	probes := make([][]float64, 4*batchChunk)
	for i := range probes {
		probes[i] = randomProbe(r, 6)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{4, 1} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{257, 511, 512, 513, 4 * batchChunk} {
			dist := make([]float64, n*f.numClasses)
			out := f.PredictBatchInto(probes[:n], dist, make([]int, n))
			for i, x := range probes[:n] {
				class, votes := f.predictOne(x)
				conf := f.Confidence(votes, class)
				if out[i] != class {
					t.Fatalf("procs=%d n=%d instance %d: got %d want %d", procs, n, i, out[i], class)
				}
				if got := f.Confidence(dist[i*f.numClasses:(i+1)*f.numClasses], out[i]); got != conf {
					t.Fatalf("procs=%d n=%d instance %d: confidence %v want %v", procs, n, i, got, conf)
				}
			}
		}
	}
}

// TestSaveLoadRebuildsFlatForest round-trips a forest through the gob
// wire format and asserts the rebuilt flat representation predicts
// identically to the original — votes bit-for-bit, on and off the
// training manifold.
func TestSaveLoadRebuildsFlatForest(t *testing.T) {
	r := stats.NewRand(17)
	ds := randomDataset(r, 400, 5, 3)
	f := TrainForest(ds, ForestConfig{Trees: 9, Seed: 4})

	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range g.Trees {
		if len(tr.nodes) == 0 {
			t.Fatal("loaded tree has no nodes")
		}
	}
	for probe := 0; probe < 200; probe++ {
		x := randomProbe(r, 5)
		c1, v1 := f.predictOne(x)
		c2, v2 := g.predictOne(x)
		if c1 != c2 {
			t.Fatalf("probe %d: predictions diverge after round trip", probe)
		}
		for c := range v1 {
			if v1[c] != v2[c] {
				t.Fatalf("probe %d class %d: votes %v != %v after round trip", probe, c, v1[c], v2[c])
			}
		}
	}
}

// TestCrossValidateParallelMatchesSerial locks in the determinism
// contract: fold-parallel execution must produce exactly the serial
// tally — matrix and every confidence bin, the summed confidences bit
// for bit — because all per-fold randomness is derived up front in
// fold order and fold tallies merge in that order.
func TestCrossValidateParallelMatchesSerial(t *testing.T) {
	ds := noisyThreeClass(450, 13)
	cfg := ForestConfig{Trees: 8, Seed: 3}
	serial := crossValidate(ds, 5, cfg, 7, 1)
	if serial.Total() != int64(ds.Len()) {
		t.Fatalf("serial CV binned %d of %d held-out predictions", serial.Total(), ds.Len())
	}
	for _, p := range []int{0, 2, 5} {
		par := crossValidate(ds, 5, cfg, 7, p)
		if !reflect.DeepEqual(par.Matrix, serial.Matrix) || !reflect.DeepEqual(par.Count, serial.Count) ||
			!reflect.DeepEqual(par.Correct, serial.Correct) || par.OutOfRange != serial.OutOfRange {
			t.Fatalf("parallelism=%d: tally %+v, serial %+v", p, par, serial)
		}
		for b := range serial.ConfSum {
			if math.Float64bits(par.ConfSum[b]) != math.Float64bits(serial.ConfSum[b]) {
				t.Fatalf("parallelism=%d: bin %d confidence sum %v, serial %v", p, b, par.ConfSum[b], serial.ConfSum[b])
			}
		}
	}
}

// TestProbaIntoZeroAlloc asserts PredictBatchInto allocates nothing
// once buffers exist — the property the engine's hot path relies on.
func TestProbaIntoZeroAlloc(t *testing.T) {
	r := stats.NewRand(23)
	ds := randomDataset(r, 300, 5, 3)
	f := TrainForest(ds, ForestConfig{Trees: 10, Seed: 6})
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = randomProbe(r, 5)
	}
	bdist := make([]float64, len(probes)*f.numClasses)
	bout := make([]int, len(probes))
	if avg := testing.AllocsPerRun(200, func() { f.PredictBatchInto(probes, bdist, bout) }); avg != 0 {
		t.Errorf("PredictBatchInto allocates %v per run", avg)
	}
}
