package ml_test

import (
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/ml"
	"vqoe/internal/stats"
)

// TestServingForestsMatchPointer: the two forests the live tools and
// the benchmark serve without model files (core.ServingFramework with
// 1500 training sessions, seed 1) select the threshold scan, and it
// gives the pointer reference walk's votes and classes bit for bit, per
// instance and per batch, on inputs at, beside and far from their
// thresholds.
func TestServingForestsMatchPointer(t *testing.T) {
	fw, err := core.ServingFramework("", "", 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(3)
	for _, det := range []*core.Detector{fw.Stall, fw.Rep} {
		f := det.Forest
		if !f.Scans() {
			t.Fatalf("%d-feature serving forest does not select the threshold scan", len(f.Features))
		}
		probes := make([][]float64, 400)
		for i := range probes {
			probes[i] = ml.ThresholdProbe(r, f)
			ml.CheckMatchesPointer(t, f, probes[i:i+1])
		}
		ml.CheckMatchesPointer(t, f, probes)
	}
}
