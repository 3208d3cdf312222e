package core

import "sort"

// FeatureAttribution is one feature's share of a single prediction's
// decision paths: the fraction of the forest's root→leaf split
// decisions (averaged over trees) that consulted this feature. The
// weights of one prediction sum to 1.
type FeatureAttribution struct {
	Feature string  `json:"feature"`
	Weight  float64 `json:"weight"`
}

// Projected returns session i's projected feature vectors from the most
// recent batch through sc, in the two detectors' Selected layouts, as
// views of the scratch: valid until sc takes another batch (the flight
// recorder copies them at retention). Nils when sc carries none.
func (f *Framework) Projected(sc *AnalyzeScratch, i int) (stall, rep []float64) {
	if f == nil || sc == nil || i < 0 {
		return nil, nil
	}
	if f.Stall != nil && i < len(sc.stall.proj) {
		stall = sc.stall.proj[i]
	}
	if f.Rep != nil && i < len(sc.rep.proj) {
		rep = sc.rep.proj[i]
	}
	return stall, rep
}

// ProjectedCopies is Projected cloned, for a caller that defers the
// decision-path replay (AttributeVectors) past the scratch's reuse. Both
// copies share one backing allocation — they are only ever read.
func (f *Framework) ProjectedCopies(sc *AnalyzeScratch, i int) (stall, rep []float64) {
	s, r := f.Projected(sc, i)
	if len(s)+len(r) == 0 {
		return nil, nil
	}
	buf := append(append(make([]float64, 0, len(s)+len(r)), s...), r...)
	if len(s) > 0 {
		stall = buf[:len(s):len(s)]
	}
	if len(r) > 0 {
		rep = buf[len(s):]
	}
	return stall, rep
}

// AttributeVectors is Attribute over previously copied projected
// vectors (see ProjectedCopies): it replays both detectors' decision
// paths and returns the top-k features per model, heaviest first.
// Either vector may be nil, yielding a nil attribution for that model.
func (f *Framework) AttributeVectors(stallProj, repProj []float64, k int) (stall, rep []FeatureAttribution) {
	if f == nil {
		return nil, nil
	}
	if f.Stall != nil && stallProj != nil {
		stall = f.Stall.Attribute(stallProj, k)
	}
	if f.Rep != nil && repProj != nil {
		rep = f.Rep.Attribute(repProj, k)
	}
	return stall, rep
}

// Attribute computes the top-k decision-path feature attributions for
// one projected instance (the detector's Selected layout, which is
// also its forest's training schema).
func (d *Detector) Attribute(proj []float64, k int) []FeatureAttribution {
	if d == nil || d.Forest == nil || k <= 0 || len(proj) != len(d.Forest.Features) {
		return nil
	}
	w := d.Forest.PathAttribution(proj, nil)
	out := make([]FeatureAttribution, 0, len(w))
	for i, wi := range w {
		if wi > 0 {
			out = append(out, FeatureAttribution{Feature: d.Forest.Features[i], Weight: wi})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return out[a].Feature < out[b].Feature
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
