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

// ProjectedCopies returns fresh copies of session i's projected
// feature vectors from the most recent batch through sc, in the two
// detectors' Selected layouts. Unlike Attribute, the copies stay valid
// after the scratch is reused by another batch, so a caller can defer
// the comparatively expensive decision-path replay to a colder moment
// (the flight recorder runs it at drill-down time, not on the ingest
// path). Returns nils when the scratch carries no projected vectors.
// Both copies share one backing allocation — they are only ever read.
func (f *Framework) ProjectedCopies(sc *AnalyzeScratch, i int) (stall, rep []float64) {
	if f == nil || sc == nil || i < 0 {
		return nil, nil
	}
	var ns, nr int
	if f.Stall != nil && i < len(sc.stall.proj) {
		ns = len(sc.stall.proj[i])
	}
	if f.Rep != nil && i < len(sc.rep.proj) {
		nr = len(sc.rep.proj[i])
	}
	if ns+nr == 0 {
		return nil, nil
	}
	buf := make([]float64, ns+nr)
	if ns > 0 {
		stall = buf[:ns:ns]
		copy(stall, sc.stall.proj[i])
	}
	if nr > 0 {
		rep = buf[ns:]
		copy(rep, sc.rep.proj[i])
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
