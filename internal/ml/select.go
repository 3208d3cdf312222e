package ml

import (
	"math"
	"sort"
)

// Feature selection: entropy-based information gain ranking (the
// paper's Tables 2 and 5 report per-feature gains) and Correlation-based
// Feature Subset selection (CfsSubsetEval) searched with Best First,
// the combination the paper uses to shrink 70 → 4 and 210 → 15 features.

// discretize maps a continuous column into equal-frequency bins and
// returns the per-instance bin index. Constant columns land in bin 0.
func discretize(col []float64, bins int) []int {
	n := len(col)
	out := make([]int, n)
	if n == 0 || bins < 2 {
		return out
	}
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	// bin edges at equal-frequency quantiles, deduplicated so heavily
	// repeated values (or constant columns) collapse to fewer bins
	edges := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		e := sorted[b*n/bins]
		// an edge at the sample minimum splits nothing — skip it
		if e > sorted[0] && (len(edges) == 0 || e > edges[len(edges)-1]) {
			edges = append(edges, e)
		}
	}
	for i, v := range col {
		// first edge strictly greater than v: values equal to an edge
		// belong to the upper bin, keeping bins equal-frequency for
		// distinct values.
		out[i] = sort.Search(len(edges), func(j int) bool { return edges[j] > v })
	}
	return out
}

func entropyInts(xs []int, cardinality int) float64 {
	if len(xs) == 0 {
		return 0
	}
	counts := make([]int, cardinality)
	for _, x := range xs {
		counts[x]++
	}
	var h float64
	n := float64(len(xs))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

func jointEntropy(a, b []int, cardA, cardB int) float64 {
	if len(a) == 0 {
		return 0
	}
	counts := make([]int, cardA*cardB)
	for i := range a {
		counts[a[i]*cardB+b[i]]++
	}
	var h float64
	n := float64(len(a))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// defaultBins is the equal-frequency discretization width used for
// entropy estimates.
const defaultBins = 10

// InfoGain returns IG(class; feature) = H(Y) - H(Y|X) for every column,
// estimated over equal-frequency discretized features.
func InfoGain(ds *Dataset) []float64 {
	gains := make([]float64, ds.NumFeatures())
	hy := entropyInts(ds.Y, ds.NumClasses())
	for f := range gains {
		x := discretize(ds.Column(f), defaultBins)
		hx := entropyInts(x, defaultBins)
		hxy := jointEntropy(x, ds.Y, defaultBins, ds.NumClasses())
		// IG = H(Y) + H(X) - H(X,Y)
		g := hy + hx - hxy
		if g < 0 {
			g = 0
		}
		gains[f] = g
	}
	return gains
}

// RankedFeature pairs a feature name with its information gain.
type RankedFeature struct {
	Name string
	Gain float64
}

// RankByInfoGain returns all features ordered by descending gain.
func RankByInfoGain(ds *Dataset) []RankedFeature {
	gains := InfoGain(ds)
	out := make([]RankedFeature, len(gains))
	for i, g := range gains {
		out[i] = RankedFeature{Name: ds.Names[i], Gain: g}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Gain > out[j].Gain })
	return out
}

// symmetricUncertainty is the normalized correlation measure CFS uses:
// SU(A,B) = 2·IG(A;B) / (H(A)+H(B)), in [0,1].
func symmetricUncertainty(a, b []int, cardA, cardB int) float64 {
	ha := entropyInts(a, cardA)
	hb := entropyInts(b, cardB)
	if ha+hb == 0 {
		return 0
	}
	ig := ha + hb - jointEntropy(a, b, cardA, cardB)
	if ig < 0 {
		ig = 0
	}
	return 2 * ig / (ha + hb)
}

// cfsMatrices precomputes the feature-class and feature-feature
// symmetric uncertainties used by the merit function.
type cfsMatrices struct {
	fc []float64   // feature-class correlation
	ff [][]float64 // feature-feature correlation (symmetric)
}

func buildCFS(ds *Dataset) *cfsMatrices {
	m := ds.NumFeatures()
	disc := make([][]int, m)
	for f := 0; f < m; f++ {
		disc[f] = discretize(ds.Column(f), defaultBins)
	}
	c := &cfsMatrices{
		fc: make([]float64, m),
		ff: make([][]float64, m),
	}
	for f := 0; f < m; f++ {
		c.fc[f] = symmetricUncertainty(disc[f], ds.Y, defaultBins, ds.NumClasses())
		c.ff[f] = make([]float64, m)
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			su := symmetricUncertainty(disc[a], disc[b], defaultBins, defaultBins)
			c.ff[a][b] = su
			c.ff[b][a] = su
		}
	}
	return c
}

// merit computes the CFS heuristic for a subset S:
//
//	Merit(S) = k·r̄cf / √(k + k(k-1)·r̄ff)
//
// favoring features correlated with the class but uncorrelated with
// each other (Hall 1999).
func (c *cfsMatrices) merit(subset []int) float64 {
	k := float64(len(subset))
	if k == 0 {
		return 0
	}
	var rcf float64
	for _, f := range subset {
		rcf += c.fc[f]
	}
	rcf /= k
	var rff float64
	if len(subset) > 1 {
		var pairs float64
		for i := 0; i < len(subset); i++ {
			for j := i + 1; j < len(subset); j++ {
				rff += c.ff[subset[i]][subset[j]]
				pairs++
			}
		}
		rff /= pairs
	}
	denom := math.Sqrt(k + k*(k-1)*rff)
	if denom == 0 {
		return 0
	}
	return k * rcf / denom
}

// cfsMaxStale stops the best-first search after this many consecutive
// expansions without merit improvement (Weka's BestFirst default).
const cfsMaxStale = 5

// CFSSelect runs CfsSubsetEval with a forward best-first search and
// returns the selected feature names ordered by descending information
// gain (the presentation order of the paper's tables).
func CFSSelect(ds *Dataset) []string {
	m := ds.NumFeatures()
	if m == 0 {
		return nil
	}
	c := buildCFS(ds)

	type state struct {
		subset []int
		merit  float64
	}
	key := func(s []int) string {
		b := make([]byte, m)
		for i := range b {
			b[i] = '0'
		}
		for _, f := range s {
			b[f] = '1'
		}
		return string(b)
	}

	open := []state{{subset: nil, merit: 0}}
	visited := map[string]bool{key(nil): true}
	best := state{}
	stale := 0

	for len(open) > 0 && stale < cfsMaxStale {
		// pop the highest-merit open state
		bi := 0
		for i := range open {
			if open[i].merit > open[bi].merit {
				bi = i
			}
		}
		cur := open[bi]
		open = append(open[:bi], open[bi+1:]...)

		improved := false
		for f := 0; f < m; f++ {
			if contains(cur.subset, f) {
				continue
			}
			child := append(append([]int(nil), cur.subset...), f)
			kk := key(child)
			if visited[kk] {
				continue
			}
			visited[kk] = true
			st := state{subset: child, merit: c.merit(child)}
			open = append(open, st)
			if st.merit > best.merit {
				best = st
				improved = true
			}
		}
		if improved {
			stale = 0
		} else {
			stale++
		}
	}

	gains := InfoGain(ds)
	sel := append([]int(nil), best.subset...)
	sort.SliceStable(sel, func(i, j int) bool { return gains[sel[i]] > gains[sel[j]] })
	names := make([]string, len(sel))
	for i, f := range sel {
		names[i] = ds.Names[f]
	}
	return names
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
