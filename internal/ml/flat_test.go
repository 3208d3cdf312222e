package ml

import (
	"bytes"
	"runtime"
	"testing"

	"vqoe/internal/stats"
)

// randomDataset builds a dataset with randomized shape: nc classes,
// m features, gaussian clusters with enough overlap that trees grow
// real depth.
func randomDataset(r *stats.Rand, n, m, nc int) *Dataset {
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
			row[j] = r.Normal(float64(c*2), 1.5)
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

// probaPointer is the pointer-chasing walk over the induction form of
// a tree: the reference the slab walk — the only one non-test code
// has — is property-tested against.
func (t *Tree) probaPointer(x []float64) []float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.dist
}

// TestFlatMatchesPointerProperty is the tentpole's equivalence
// property: over randomized forests (shape, depth caps, leaf sizes)
// and randomized inputs, the flattened slab walk must agree
// bit-for-bit with the pointer-chasing reference walk — per tree
// (Proba) and per forest (Proba/Predict/PredictBatchInto).
func TestFlatMatchesPointerProperty(t *testing.T) {
	r := stats.NewRand(71)
	for trial := 0; trial < 8; trial++ {
		n := 100 + r.Intn(400)
		m := 2 + r.Intn(8)
		nc := 2 + r.Intn(3)
		ds := randomDataset(r, n, m, nc)
		cfg := ForestConfig{
			Trees:    3 + r.Intn(10),
			MaxDepth: r.Intn(8), // 0 = unbounded
			MinLeaf:  1 + r.Intn(4),
			Seed:     r.Int63(),
		}
		f := TrainForest(ds, cfg)

		for probe := 0; probe < 50; probe++ {
			x := randomProbe(r, m)
			for ti, tr := range f.Trees {
				flat := tr.Proba(x)
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
			// compare with the flat Proba, bit for bit (same summation
			// order: tree 0..T-1)
			want := make([]float64, f.numClasses)
			for _, tr := range f.Trees {
				for c, p := range tr.probaPointer(x) {
					want[c] += p
				}
			}
			for c := range want {
				want[c] /= float64(len(f.Trees))
			}
			got := f.Proba(x)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("trial %d: forest proba[%d] flat %v != pointer %v", trial, c, got[c], want[c])
				}
			}
		}

		// batch path agrees with per-instance path, including the
		// caller-buffer variant reused across calls
		probes := make([][]float64, 300)
		for i := range probes {
			probes[i] = randomProbe(r, m)
		}
		dist := make([]float64, len(probes)*f.numClasses)
		out := make([]int, len(probes))
		for pass := 0; pass < 2; pass++ {
			into := f.PredictBatchInto(probes, dist, out)
			for i, x := range probes {
				if want := f.Predict(x); into[i] != want {
					t.Fatalf("trial %d pass %d instance %d: into=%d single=%d",
						trial, pass, i, into[i], want)
				}
			}
		}
	}
}

// TestPredictBatchIntoParallelMatchesSerial drives batches on both
// sides of every worker-count boundary (one worker per 256 instances)
// and checks classes and confidences against per-instance predictions,
// with the pool available and on a single CPU.
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
				class, conf := f.PredictConf(x)
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
// identically to the original — Proba bit-for-bit, on and off the
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
		if tr.flat == nil {
			t.Fatal("loaded tree missing flat representation")
		}
	}
	for probe := 0; probe < 200; probe++ {
		x := randomProbe(r, 5)
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("probe %d: predictions diverge after round trip", probe)
		}
		p1, p2 := f.Proba(x), g.Proba(x)
		for c := range p1 {
			if p1[c] != p2[c] {
				t.Fatalf("probe %d class %d: proba %v != %v after round trip", probe, c, p1[c], p2[c])
			}
		}
	}
}

// TestCrossValidateParallelMatchesSerial locks in the determinism
// contract: fold-parallel execution must produce exactly the serial
// confusion matrix, because all per-fold randomness is derived up
// front in fold order.
func TestCrossValidateParallelMatchesSerial(t *testing.T) {
	ds := noisyThreeClass(450, 13)
	cfg := ForestConfig{Trees: 8, Seed: 3}
	serial := CrossValidate(ds, 5, cfg, 7, 1)
	for _, p := range []int{0, 2, 5} {
		par := CrossValidate(ds, 5, cfg, 7, p)
		for i := range serial.Counts {
			for j := range serial.Counts[i] {
				if serial.Counts[i][j] != par.Counts[i][j] {
					t.Fatalf("parallelism=%d: counts[%d][%d] = %d, serial %d",
						p, i, j, par.Counts[i][j], serial.Counts[i][j])
				}
			}
		}
	}
}

// TestProbaIntoZeroAlloc asserts the Into variants allocate nothing
// once buffers exist — the property the engine's hot path relies on.
func TestProbaIntoZeroAlloc(t *testing.T) {
	r := stats.NewRand(23)
	ds := randomDataset(r, 300, 5, 3)
	f := TrainForest(ds, ForestConfig{Trees: 10, Seed: 6})
	x := randomProbe(r, 5)
	dist := make([]float64, f.numClasses)
	if avg := testing.AllocsPerRun(200, func() { f.ProbaInto(x, dist) }); avg != 0 {
		t.Errorf("ProbaInto allocates %v per run", avg)
	}
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = randomProbe(r, 5)
	}
	bdist := make([]float64, len(probes)*f.numClasses)
	bout := make([]int, len(probes))
	if avg := testing.AllocsPerRun(200, func() { f.PredictBatchInto(probes, bdist, bout) }); avg != 0 {
		t.Errorf("PredictBatchInto allocates %v per run", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { f.Predict(x) }); avg != 0 {
		t.Errorf("Predict allocates %v per run", avg)
	}
}
