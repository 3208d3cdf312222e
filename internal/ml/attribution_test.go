package ml

import (
	"math"
	"testing"

	"vqoe/internal/stats"
)

// TestPathAttributionSumsToOne: for any trained forest and any probe,
// the decision-path weights are non-negative, live only on features
// the forest actually splits on, and sum to exactly 1. The data's
// size, width, class count and cluster spread vary the trees' shape.
func TestPathAttributionSumsToOne(t *testing.T) {
	r := stats.NewRand(83)
	for trial := 0; trial < 6; trial++ {
		ds := spreadDataset(r, 100+r.Intn(300), 2+r.Intn(8), 2+r.Intn(3), 0.2+3*r.Float64())
		f := TrainForest(ds, ForestConfig{Trees: 3 + r.Intn(8), Seed: r.Int63()})
		var buf []float64
		for probe := 0; probe < 20; probe++ {
			x := randomProbe(r, len(ds.Names))
			buf = f.PathAttribution(x, buf)
			if len(buf) != len(f.Features) {
				t.Fatalf("trial %d: got %d weights, want %d", trial, len(buf), len(f.Features))
			}
			sum := 0.0
			for i, w := range buf {
				if w < 0 {
					t.Fatalf("trial %d: negative weight %g for %s", trial, w, f.Features[i])
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("trial %d: weights sum to %g, want 1", trial, sum)
			}
		}
	}
}

// pathAttributionPointer is pathAttribution over the wire form of a
// tree (probaPointer's traversal with the path recorded): the
// reference the slab walk is compared against.
func (t *Tree) pathAttributionPointer(x []float64, acc []float64) bool {
	var path []int
	for nd := t.toDTO(0); !nd.Leaf; {
		if len(path) < maxPathDepth {
			path = append(path, nd.Feature)
		}
		if x[nd.Feature] <= nd.Threshold {
			nd = nd.Left
		} else {
			nd = nd.Right
		}
	}
	for _, fi := range path {
		acc[fi] += 1.0 / float64(len(path))
	}
	return len(path) > 0
}

// TestPathAttributionFlatMatchesPointer: the slab walk and the pointer
// walk visit the same path, so the attribution agrees bit for bit.
func TestPathAttributionFlatMatchesPointer(t *testing.T) {
	r := stats.NewRand(97)
	ds := randomDataset(r, 300, 6, 3)
	f := TrainForest(ds, ForestConfig{Trees: 9, Seed: 5})
	for probe := 0; probe < 30; probe++ {
		x := randomProbe(r, len(ds.Names))
		flat := f.PathAttribution(x, nil)
		ptr := make([]float64, len(f.Features))
		trees := 0
		for _, tr := range f.Trees {
			if tr.pathAttributionPointer(x, ptr) {
				trees++
			}
		}
		for i := range flat {
			if want := ptr[i] * (1.0 / float64(trees)); flat[i] != want {
				t.Fatalf("probe %d feature %s: flat %g != pointer %g",
					probe, f.Features[i], flat[i], want)
			}
		}
	}
}
