package ml

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
)

// legacyForestDTO is the pre-baseline wire shape (version 0 files, from
// before quality monitoring existed). Gob matches fields by name, so
// encoding this and decoding into the current forestDTO is exactly what
// happens when a new binary opens an old model file.
type legacyForestDTO struct {
	Features []string
	Classes  []string
	Trees    []*nodeDTO
}

// TestLoadLegacyModelFile asserts backward compatibility of the model
// wire format: a file written before Version/Baseline existed still
// loads, predicts bit-identically, and carries a nil Baseline (which
// the quality monitor reports as "no baseline" rather than an error).
func TestLoadLegacyModelFile(t *testing.T) {
	r := stats.NewRand(31)
	ds := randomDataset(r, 400, 5, 3)
	f := TrainForest(ds, ForestConfig{Trees: 9, Seed: 4})

	legacy := legacyForestDTO{
		Features: f.Features,
		Classes:  f.Classes,
		Trees:    make([]*nodeDTO, len(f.Trees)),
	}
	for i, tr := range f.Trees {
		legacy.Trees[i] = tr.toDTO(0)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}

	g, err := LoadForest(&buf)
	if err != nil {
		t.Fatalf("legacy model file failed to load: %v", err)
	}
	if g.Baseline != nil {
		t.Fatal("legacy model file decoded a non-nil baseline")
	}
	for probe := 0; probe < 200; probe++ {
		x := randomProbe(r, 5)
		c1, _ := f.predictOne(x)
		if c2, _ := g.predictOne(x); c1 != c2 {
			t.Fatalf("probe %d: legacy-loaded forest diverges", probe)
		}
	}
}

// TestSaveLoadRoundTripsBaseline asserts the forward direction: a
// baseline attached at training time survives the gob round trip
// field for field.
func TestSaveLoadRoundTripsBaseline(t *testing.T) {
	r := stats.NewRand(37)
	ds := randomDataset(r, 300, 4, 2)
	f := TrainForest(ds, ForestConfig{Trees: 7, Seed: 9})
	f.Baseline = qualitymon.CaptureBaseline(
		f.Features, ds.X, ds.Y, f.Classes, qualitymon.DefaultBins)
	f.Baseline.Calibration = *qualitymon.NewTally(f.Classes)
	f.Baseline.Calibration.Observe(1, 1, 0.9)
	f.Baseline.Calibration.Observe(0, 1, 0.6)

	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Baseline == nil {
		t.Fatal("baseline lost in round trip")
	}
	if !reflect.DeepEqual(f.Baseline, g.Baseline) {
		t.Fatalf("baseline changed in round trip:\nsaved  %+v\nloaded %+v", f.Baseline, g.Baseline)
	}
}

// TestNonFiniteTrainingRoundTrips: a forest trained on NaN and ±Inf
// values saves, loads back, and the loaded one scores every probe as
// the trained one and the pointer walk do, bit for bit. (A NaN midpoint
// never becomes a split: no value is ≤ it, so its left side is empty
// and induction makes the node a leaf. Loaded NaN thresholds are held
// to the walk by TestFlatMatchesPointerProperty's palette.)
func TestNonFiniteTrainingRoundTrips(t *testing.T) {
	r := stats.NewRand(41)
	ds := randomDataset(r, 300, 3, 2)
	for i, row := range ds.X {
		if i%5 == 0 {
			row[0] = math.NaN()
		}
		if i%3 == 0 {
			row[1] = math.Inf(2*ds.Y[i] - 1)
		}
	}
	f := TrainForest(ds, ForestConfig{Trees: 9, Seed: 5})
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadForest(&buf)
	if err != nil {
		t.Fatalf("forest trained on non-finite values refused on load: %v", err)
	}
	probes := make([][]float64, 300)
	for i := range probes {
		probes[i] = thresholdProbe(r, f)
	}
	checkMatchesPointer(t, f, probes)
	checkMatchesPointer(t, g, probes)
	for i, x := range probes {
		want, got := f.pointerVotes(x), g.pointerVotes(x)
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("probe %d: loaded votes %v, trained %v", i, got, want)
			}
		}
	}
}

// calibrationOnlyDTO is the model file shape from before the baseline's
// calibration became a Tally: the same forest, a baseline whose
// Calibration holds only the three confidence-bin columns.
type calibrationOnlyDTO struct {
	Features []string
	Classes  []string
	Trees    []*nodeDTO
	Version  int
	Baseline *struct {
		Version     int
		Features    []string
		Classes     []string
		Edges       [][]float64
		Expected    [][]float64
		Priors      []float64
		Calibration struct {
			Count   []int64
			ConfSum []float64
			Correct []int64
		}
	}
}

// TestBaselineTallyCrossesWireVersions: a file with the calibration
// columns only loads with an empty matrix and the same baseline
// accuracy and ECE in the monitor, and a file saved now decodes into
// the older shape with the same columns.
func TestBaselineTallyCrossesWireVersions(t *testing.T) {
	r := stats.NewRand(43)
	ds := randomDataset(r, 300, 4, 2)
	f := TrainForest(ds, ForestConfig{Trees: 7, Seed: 9})
	f.Baseline = qualitymon.CaptureBaseline(f.Features, ds.X, ds.Y, f.Classes, qualitymon.DefaultBins)
	f.Baseline.Calibration = *Evaluate(f, ds)
	cal := &f.Baseline.Calibration

	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var old calibrationOnlyDTO
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("a saved file does not decode into the calibration-only shape: %v", err)
	}
	got := old.Baseline.Calibration
	if !reflect.DeepEqual(got.Count, cal.Count) || !reflect.DeepEqual(got.ConfSum, cal.ConfSum) || !reflect.DeepEqual(got.Correct, cal.Correct) {
		t.Fatalf("calibration-only decode read %+v, saved %+v", got, cal)
	}

	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	g, err := LoadForest(&buf)
	if err != nil {
		t.Fatalf("calibration-only file refused: %v", err)
	}
	if g.Baseline.Calibration.Matrix != nil {
		t.Errorf("calibration-only file loaded a matrix %v", g.Baseline.Calibration.Matrix)
	}
	snap := func(b *qualitymon.Baseline) qualitymon.ModelSnapshot {
		m := qualitymon.New(qualitymon.Config{Shards: 1,
			Stall: qualitymon.ModelConfig{Name: "stall", Classes: f.Classes, Baseline: b}})
		return m.Snapshot().Models[0]
	}
	want, loaded := snap(f.Baseline), snap(g.Baseline)
	if math.Float64bits(loaded.BaselineAccuracy) != math.Float64bits(want.BaselineAccuracy) ||
		math.Float64bits(loaded.BaselineECE) != math.Float64bits(want.BaselineECE) {
		t.Errorf("calibration-only file: baseline accuracy %v ECE %v, saved %v and %v",
			loaded.BaselineAccuracy, loaded.BaselineECE, want.BaselineAccuracy, want.BaselineECE)
	}
	if want.BaselineAccuracy == 0 || want.BaselineECE == 0 {
		t.Errorf("baseline accuracy %v, ECE %v: the comparison needs both nonzero", want.BaselineAccuracy, want.BaselineECE)
	}
}

// TestConfidenceMatchesPointerVotes pins a one-row batch's class and
// confidence to the reference pointer walk: the class is the argmax of
// the summed leaf distributions, the confidence that class's share of
// the tree votes.
func TestConfidenceMatchesPointerVotes(t *testing.T) {
	r := stats.NewRand(41)
	ds := randomDataset(r, 400, 5, 3)
	f := TrainForest(ds, ForestConfig{Trees: 11, Seed: 5})
	for probe := 0; probe < 300; probe++ {
		x := randomProbe(r, 5)
		if probe%3 == 0 {
			// a NaN fails every ≤ test and walks right: still one leaf
			// per tree, so class and confidence stay defined
			x[probe%5] = math.NaN()
		}
		pred, votes := f.predictOne(x)
		ref := f.pointerVotes(x)
		if want := argmax(ref); pred != want {
			t.Fatalf("probe %d: class %d, pointer walk %d", probe, pred, want)
		}
		conf := f.Confidence(votes, pred)
		if conf <= 0 || conf > 1 {
			t.Fatalf("probe %d: confidence %v outside (0,1]", probe, conf)
		}
		if want := ref[pred] / float64(len(f.Trees)); conf != want {
			t.Fatalf("probe %d: confidence %v != winning vote share %v", probe, conf, want)
		}
	}
}

// TestLoadForestRejectsMalformed: a model file is outside input, so
// every shape that would panic at load (missing child), panic on a
// shard at the first prediction (feature index out of range), or
// silently mispredict (misaligned leaf slab) is an error from
// LoadForest — never a panic, never a forest.
func TestLoadForestRejectsMalformed(t *testing.T) {
	leaf := func(dist ...float64) *nodeDTO { return &nodeDTO{Leaf: true, Dist: dist} }
	split := func(f int, l, r *nodeDTO) *nodeDTO { return &nodeDTO{Feature: f, Threshold: 1, Left: l, Right: r} }
	deep := leaf(1, 0)
	for i := 0; i <= maxTreeDepth; i++ {
		deep = split(0, deep, leaf(0, 1))
	}
	good := forestDTO{
		Features: []string{"a", "b"},
		Classes:  []string{"x", "y"},
		Trees:    []*nodeDTO{split(1, leaf(1, 0), leaf(0, 1))},
	}
	base := qualitymon.CaptureBaseline(good.Features, [][]float64{{1, 2}, {3, 4}}, []int{0, 1}, good.Classes, 4)
	base.Calibration = *qualitymon.NewTally(good.Classes)
	cases := []struct {
		name   string
		mutate func(*forestDTO)
		want   string
	}{
		{"valid", func(*forestDTO) {}, ""},
		{"valid with baseline", func(d *forestDTO) { d.Baseline = base }, ""},
		{"no trees", func(d *forestDTO) { d.Trees = nil }, "no trees"},
		{"no classes", func(d *forestDTO) { d.Classes = nil; d.Trees = []*nodeDTO{leaf()} }, "no classes"},
		{"missing left child", func(d *forestDTO) { d.Trees = []*nodeDTO{split(0, nil, leaf(0, 1))} }, "missing node"},
		{"missing right child", func(d *forestDTO) { d.Trees = []*nodeDTO{split(0, leaf(1, 0), nil)} }, "missing node"},
		{"feature past schema", func(d *forestDTO) { d.Trees = []*nodeDTO{split(2, leaf(1, 0), leaf(0, 1))} }, "feature 2 of 2"},
		{"negative feature on split", func(d *forestDTO) { d.Trees = []*nodeDTO{split(-1, leaf(1, 0), leaf(0, 1))} }, "feature -1"},
		{"short leaf", func(d *forestDTO) { d.Trees = []*nodeDTO{split(0, leaf(1), leaf(0, 1))} }, "1 class weights"},
		{"long leaf", func(d *forestDTO) { d.Trees = []*nodeDTO{leaf(1, 0, 0)} }, "3 class weights"},
		{"NaN leaf", func(d *forestDTO) { d.Trees = []*nodeDTO{leaf(math.NaN(), 0)} }, "non-finite"},
		{"Inf leaf", func(d *forestDTO) { d.Trees = []*nodeDTO{leaf(0, math.Inf(1))} }, "non-finite"},
		{"too deep", func(d *forestDTO) { d.Trees = []*nodeDTO{deep} }, "deeper than"},
		{"valid at infinite, signed-zero and NaN thresholds", func(d *forestDTO) {
			at := func(th float64, l, r *nodeDTO) *nodeDTO {
				return &nodeDTO{Feature: 0, Threshold: th, Left: l, Right: r}
			}
			d.Trees = []*nodeDTO{
				at(math.Inf(-1), leaf(1, 0), at(math.Copysign(0, -1), leaf(0, 1), leaf(1, 0))),
				at(0, at(math.Inf(1), leaf(0, 1), leaf(1, 0)), leaf(0, 1)),
				at(math.NaN(), leaf(1, 0), at(1, leaf(0, 1), leaf(1, 0))),
			}
		}, ""},
		{"baseline of another schema", func(d *forestDTO) {
			b := *base
			b.Edges = b.Edges[:1]
			d.Baseline = &b
		}, "baseline"},
		{"baseline with ragged edges", func(d *forestDTO) {
			b := *base
			b.Edges = [][]float64{b.Edges[0], b.Edges[1][:1]}
			d.Baseline = &b
		}, "baseline"},
		{"baseline priors of another schema", func(d *forestDTO) {
			b := *base
			b.Priors = []float64{1}
			d.Baseline = &b
		}, "baseline"},
		{"baseline tally with ragged bins", func(d *forestDTO) {
			b := *base
			b.Calibration.ConfSum = b.Calibration.ConfSum[:3]
			d.Baseline = &b
		}, "calibration columns"},
		{"baseline tally of another schema", func(d *forestDTO) {
			b := *base
			b.Calibration.Matrix = [][]int64{{1, 0}, {0, 1}, {0, 0}}
			d.Baseline = &b
		}, "matrix of 3 rows"},
		{"baseline tally with a ragged row", func(d *forestDTO) {
			b := *base
			b.Calibration.Matrix = [][]int64{{1, 0}, {0}}
			d.Baseline = &b
		}, "row 1 has 1 columns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dto := good
			tc.mutate(&dto)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&dto); err != nil {
				t.Fatal(err)
			}
			f, err := LoadForest(&buf)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid forest refused: %v", err)
				}
				inf, negZero := math.Inf(1), math.Copysign(0, -1)
				checkMatchesPointer(t, f, [][]float64{{0, 0}, {negZero, 1}, {inf, math.NaN()}, {-inf, negZero}, {math.NaN(), -inf}})
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
