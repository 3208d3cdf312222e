package core

import (
	"math"
	"testing"

	"vqoe/internal/ml"
	"vqoe/internal/qualitymon"
)

// TestTrainCapturesBaseline asserts the training path attaches a
// complete quality baseline to both forests: selected-feature sketches
// that re-bin the training set to PSI 0, normalized priors, and a
// held-out calibration curve whose accuracy agrees with the CV report.
func TestTrainCapturesBaseline(t *testing.T) {
	testCorpora(t)
	for _, tc := range []struct {
		name string
		det  *Detector
		rep  *TrainReport
	}{
		{"stall", &stallDet.Detector, stallRep},
		{"rep", &repDet.Detector, repRep},
	} {
		b := tc.det.Forest.Baseline
		if b == nil {
			t.Fatalf("%s: training left no baseline on the forest", tc.name)
		}
		if b.Version != qualitymon.BaselineVersion {
			t.Errorf("%s: baseline version %d, want %d", tc.name, b.Version, qualitymon.BaselineVersion)
		}
		if len(b.Features) != len(tc.det.Forest.Features) {
			t.Fatalf("%s: baseline sketches %d features, forest has %d",
				tc.name, len(b.Features), len(tc.det.Forest.Features))
		}
		for i, name := range b.Features {
			if name != tc.det.Forest.Features[i] {
				t.Fatalf("%s: baseline feature order %v != forest %v — serve-time vectors would misbin",
					tc.name, b.Features, tc.det.Forest.Features)
			}
		}
		var priorSum float64
		for _, p := range b.Priors {
			priorSum += p
		}
		if math.Abs(priorSum-1) > 1e-9 {
			t.Errorf("%s: priors sum to %v, want 1", tc.name, priorSum)
		}
		if got, want := b.Calibration.Total(), int64(tc.rep.CV.Total()); got != want {
			t.Errorf("%s: calibration holds %d held-out predictions, CV evaluated %d", tc.name, got, want)
		}
		if got, want := b.Calibration.Accuracy(), tc.rep.CV.Accuracy(); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: calibration accuracy %v != CV accuracy %v (same held-out predictions)", tc.name, got, want)
		}
	}
}

// TestCrossValidateCalibratedMatchesPlain pins the refactor of the CV
// loop: the calibrated variant must produce the exact confusion matrix
// the original CrossValidate does (same folds, seeds, and per-instance
// vote accumulation order).
func TestCrossValidateCalibratedMatchesPlain(t *testing.T) {
	testCorpora(t)
	ds := BuildStallDataset(stallCorpus)
	fcfg := ml.ForestConfig{Trees: 15, Seed: 11}
	plain := ml.CrossValidate(ds, 5, fcfg, 99)
	calibrated, cal := ml.CrossValidateCalibrated(ds, 5, fcfg, 99)
	for i := range plain.Counts {
		for j := range plain.Counts[i] {
			if plain.Counts[i][j] != calibrated.Counts[i][j] {
				t.Fatalf("counts[%d][%d]: calibrated %d != plain %d",
					i, j, calibrated.Counts[i][j], plain.Counts[i][j])
			}
		}
	}
	if cal.Total() != int64(plain.Total()) {
		t.Fatalf("calibration total %d != CV instances %d", cal.Total(), plain.Total())
	}
	if math.Abs(cal.Accuracy()-plain.Accuracy()) > 1e-12 {
		t.Fatalf("calibration accuracy %v != confusion accuracy %v", cal.Accuracy(), plain.Accuracy())
	}
}
