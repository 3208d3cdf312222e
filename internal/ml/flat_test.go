package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
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

// walkOf is f without its scan tables: the same trees, predicted by the
// preorder walk.
func walkOf(f *Forest) *Forest {
	g := *f
	g.scan = nil
	return &g
}

// scans reports whether the selection rule gives f the threshold scan:
// at most scanWidth trees, none of more than scanWidth leaves.
func scans(f *Forest) bool {
	if len(f.Trees) > scanWidth {
		return false
	}
	for _, t := range f.Trees {
		leaves := 0
		for _, n := range t.nodes {
			if n.feature < 0 {
				leaves++
			}
		}
		if leaves > scanWidth {
			return false
		}
	}
	return true
}

// checkMatchesPointer predicts xs as one batch through PredictBatchInto
// and holds every row's votes and class to the pointer reference walk,
// bit for bit.
func checkMatchesPointer(t testing.TB, f *Forest, xs [][]float64) {
	t.Helper()
	nc := f.numClasses
	dist := make([]float64, len(xs)*nc)
	out := f.PredictBatchInto(xs, dist, make([]int, len(xs)))
	for i, x := range xs {
		want := f.pointerVotes(x)
		for c := range want {
			if got := dist[i*nc+c]; math.Float64bits(got) != math.Float64bits(want[c]) {
				t.Fatalf("instance %d %v: votes[%d] = %v, pointer walk %v", i, x, c, got, want[c])
			}
		}
		if out[i] != argmax(want) {
			t.Fatalf("instance %d %v: class %d, pointer walk %d", i, x, out[i], argmax(want))
		}
	}
}

// thresholdProbe draws a query point aimed at f's splits: each feature
// is one of the thresholds f tests it at, or the float just above or
// below one, or NaN, ±Inf, ±0, or a wide normal draw.
func thresholdProbe(r *stats.Rand, f *Forest) []float64 {
	th := make([][]float64, len(f.Features))
	for _, t := range f.Trees {
		for _, n := range t.nodes {
			if n.feature >= 0 {
				th[n.feature] = append(th[n.feature], n.threshold)
			}
		}
	}
	x := make([]float64, len(f.Features))
	for j := range x {
		switch k := r.Intn(10); {
		case k < 6 && len(th[j]) > 0:
			v := th[j][r.Intn(len(th[j]))]
			x[j] = [3]float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))}[k%3]
		case k == 6:
			x[j] = math.NaN()
		case k == 7:
			x[j] = [4]float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[r.Intn(4)]
		default:
			x[j] = r.Normal(3, 5)
		}
	}
	return x
}

// randomTreeDTO builds a wire-form tree of exactly leaves leaves over m
// features and nc classes. Thresholds come from a small palette — ties,
// ±Inf, both zeros and NaN included — or a normal draw.
func randomTreeDTO(r *stats.Rand, leaves, m, nc int) *nodeDTO {
	if leaves == 1 {
		d := make([]float64, nc)
		for c := range d {
			d[c] = r.Float64()
		}
		return &nodeDTO{Leaf: true, Dist: d}
	}
	palette := [...]float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), math.NaN(), 1, 2, 3}
	th := r.Normal(2, 3)
	if r.Intn(2) == 0 {
		th = palette[r.Intn(len(palette))]
	}
	left := 1 + r.Intn(leaves-1)
	return &nodeDTO{
		Feature: r.Intn(m), Threshold: th,
		Left:  randomTreeDTO(r, left, m, nc),
		Right: randomTreeDTO(r, leaves-left, m, nc),
	}
}

// loadTrees builds a forest of the given wire-form trees through
// LoadForest, the loader constructor.
func loadTrees(t testing.TB, m, nc int, trees []*nodeDTO) *Forest {
	t.Helper()
	dto := forestDTO{Trees: trees}
	for j := 0; j < m; j++ {
		dto.Features = append(dto.Features, fmt.Sprintf("f%d", j))
	}
	for c := 0; c < nc; c++ {
		dto.Classes = append(dto.Classes, fmt.Sprintf("c%d", c))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&dto); err != nil {
		t.Fatal(err)
	}
	f, err := LoadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlatMatchesPointerProperty holds both prediction kernels to the
// pointer-chasing reference walk, bit for bit. Over randomized trained
// forests (size, width, class count, cluster spread) the slab walk
// lands on the reference leaf in every tree, and PredictBatchInto —
// the threshold scan or the walk, whichever the forest selects — gives
// the reference votes and class, per instance and per batch, on random
// inputs and on inputs at, just beside and far from every threshold,
// NaN, ±Inf and −0 included. The draws must span tree shapes from a
// lone leaf to more than 7 levels deep. Loaded forests then pin the
// selection's edges: lone-leaf trees, one class, a tree of exactly 64
// leaves (scan) and of 65 (walk), forests of 64 trees (scan) and 65
// (walk), with ties, ±Inf, both zeros and NaN among the thresholds.
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
		if (f.scan != nil) != scans(f) {
			t.Fatalf("trial %d: scan tables %v, selection rule says %v", trial, f.scan != nil, scans(f))
		}

		probes := make([][]float64, 300)
		for i := range probes {
			if i%2 == 0 {
				probes[i] = randomProbe(r, m)
			} else {
				probes[i] = thresholdProbe(r, f)
			}
		}
		for _, x := range probes[:100] {
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
			// one-row batches: the same summation order, tree 0..T-1
			checkMatchesPointer(t, f, [][]float64{x})
			checkMatchesPointer(t, walkOf(f), [][]float64{x})
		}
		// whole batches, caller buffers reused across calls
		checkMatchesPointer(t, f, probes)
		checkMatchesPointer(t, walkOf(f), probes)
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

	cases := []struct {
		name   string
		nc     int
		leaves []int // per tree
		scan   bool
	}{
		{"lone leaves", 3, []int{1, 1, 1, 1}, true},
		{"one class", 1, []int{1, 5, 17, 64}, true},
		{"a tree of 64 leaves", 3, []int{2, 64, 9}, true},
		{"a tree of 65 leaves", 3, []int{2, 65, 9}, false},
		{"64 trees", 2, repeat(64, 12), true},
		{"65 trees", 2, repeat(65, 12), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := 4
			trees := make([]*nodeDTO, len(tc.leaves))
			for i, l := range tc.leaves {
				trees[i] = randomTreeDTO(r, l, m, tc.nc)
			}
			f := loadTrees(t, m, tc.nc, trees)
			if (f.scan != nil) != tc.scan {
				t.Fatalf("scan tables %v, want %v", f.scan != nil, tc.scan)
			}
			probes := make([][]float64, 200)
			for i := range probes {
				probes[i] = thresholdProbe(r, f)
			}
			for _, x := range probes {
				checkMatchesPointer(t, f, [][]float64{x})
			}
			checkMatchesPointer(t, f, probes)
		})
	}
}

// repeat is n copies of v.
func repeat(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
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
// once buffers exist, by either kernel — the property the engine's hot
// path relies on.
func TestProbaIntoZeroAlloc(t *testing.T) {
	r := stats.NewRand(23)
	ds := randomDataset(r, 300, 5, 3)
	f := TrainForest(ds, ForestConfig{Trees: 10, Seed: 6})
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = randomProbe(r, 5)
	}
	if f.scan == nil {
		t.Fatal("the forest does not select the threshold scan")
	}
	bdist := make([]float64, len(probes)*f.numClasses)
	bout := make([]int, len(probes))
	for _, k := range []struct {
		name string
		f    *Forest
	}{{"scan", f}, {"walk", walkOf(f)}} {
		if avg := testing.AllocsPerRun(200, func() { k.f.PredictBatchInto(probes, bdist, bout) }); avg != 0 {
			t.Errorf("PredictBatchInto by the %s allocates %v per run", k.name, avg)
		}
	}
}
