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
		legacy.Trees[i] = toDTO(tr.root)
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
		if f.Predict(x) != g.Predict(x) {
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
	f.Baseline.Calibration = *qualitymon.NewCalibrationCurve(qualitymon.ConfBins)
	f.Baseline.Calibration.Observe(0.9, true)
	f.Baseline.Calibration.Observe(0.6, false)

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

// TestPredictConfMatchesPredict pins the confidence path to the vote
// path: same winning class as Predict, confidence equal to the winning
// class's share of the tree votes.
func TestPredictConfMatchesPredict(t *testing.T) {
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
		pred, conf := f.PredictConf(x)
		if want := f.Predict(x); pred != want {
			t.Fatalf("probe %d: PredictConf class %d, Predict %d", probe, pred, want)
		}
		if conf <= 0 || conf > 1 {
			t.Fatalf("probe %d: confidence %v outside (0,1]", probe, conf)
		}
		if want := f.Proba(x)[pred]; conf != want {
			t.Fatalf("probe %d: confidence %v != winning proba %v", probe, conf, want)
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
	base.Calibration = *qualitymon.NewCalibrationCurve(0)
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
				f.Predict([]float64{0, 0})
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
