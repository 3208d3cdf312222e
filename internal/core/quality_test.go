package core

import (
	"math"
	"testing"

	"vqoe/internal/qualitymon"
)

// TestTrainCapturesBaseline asserts the training path attaches a
// complete quality baseline to both forests: selected-feature sketches
// that re-bin the training set to PSI 0, normalized priors, and a
// held-out calibration tally that is the CV report itself.
func TestTrainCapturesBaseline(t *testing.T) {
	testCorpora(t)
	for _, tc := range []struct {
		name string
		det  *Detector
		rep  *TrainReport
	}{
		{"stall", stallDet, stallRep},
		{"rep", repDet, repRep},
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
		if tc.rep.CV != &b.Calibration {
			t.Errorf("%s: the CV report and the baseline's calibration are two tallies", tc.name)
		}
		if b.Calibration.Total() == 0 {
			t.Errorf("%s: calibration holds no held-out predictions", tc.name)
		}
	}
}
