package ml

import (
	"testing"
)

func TestPermutationImportanceFindsSignal(t *testing.T) {
	ds := informativeAndNoise(1500, 44)
	f := TrainForest(ds, ForestConfig{Trees: 30, Seed: 2})
	imp := PermutationImportance(f, ds, 3)
	if len(imp) != ds.NumFeatures() {
		t.Fatalf("%d importances", len(imp))
	}
	// the true signal (or its echo) must rank first
	if imp[0].Name != "signal" && imp[0].Name != "echo" {
		t.Errorf("top importance is %q", imp[0].Name)
	}
	if imp[0].Drop <= 0 {
		t.Errorf("top importance drop %v not positive", imp[0].Drop)
	}
	// noise features must have near-zero drop
	for _, im := range imp {
		if (im.Name == "noise1" || im.Name == "noise2") && im.Drop > 0.05 {
			t.Errorf("noise feature %s has drop %v", im.Name, im.Drop)
		}
	}
}

func TestPermutationImportanceDoesNotMutate(t *testing.T) {
	ds := informativeAndNoise(200, 45)
	f := TrainForest(ds, ForestConfig{Trees: 10, Seed: 2})
	before := ds.X[0][0]
	PermutationImportance(f, ds, 3)
	if ds.X[0][0] != before {
		t.Error("dataset mutated by importance computation")
	}
}
