package ml

// Decision-path feature attribution: a cheap, exact answer to "which
// features did the forest actually consult for THIS prediction?". Each
// tree contributes total weight 1, split evenly over the features on
// the root→leaf path its vote followed; averaging over trees yields a
// per-feature weight vector summing to 1. Unlike permutation or SHAP
// importances this costs one extra tree walk per tree and needs no
// background data, which is what the flight recorder's per-session
// "why did this score badly?" view requires on the serve path.

// maxPathDepth bounds the per-tree path buffer. Trees here are depth
// ≤ ~25 on the paper's corpora; splits past the bound are ignored
// (the recorded prefix still gets the full tree weight).
const maxPathDepth = 64

// PathAttribution walks every tree's decision path for instance x and
// accumulates per-feature weights into out (len(f.Features)), which is
// allocated when nil or mis-sized. The weights are non-negative and
// sum to 1 for any non-empty forest with at least one split.
func (f *Forest) PathAttribution(x []float64, out []float64) []float64 {
	if len(out) != len(f.Features) {
		out = make([]float64, len(f.Features))
	}
	for i := range out {
		out[i] = 0
	}
	trees := 0
	for _, t := range f.Trees {
		if t.pathAttribution(x, out) {
			trees++
		}
	}
	if trees > 0 {
		inv := 1.0 / float64(trees)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// pathAttribution adds this tree's path weights into acc, reporting
// whether the path crossed at least one split (a single-leaf tree
// consults no features and contributes nothing).
func (t *Tree) pathAttribution(x []float64, acc []float64) bool {
	var path [maxPathDepth]int32
	n := 0
	nodes := t.flat.nodes
	for i := 0; ; {
		nd := nodes[i]
		fi := int(nd.feature)
		if fi < 0 {
			break
		}
		if n < maxPathDepth {
			path[n] = int32(fi)
			n++
		}
		if x[fi] <= nd.threshold {
			i++
		} else {
			i = int(nd.right)
		}
	}
	if n == 0 {
		return false
	}
	w := 1.0 / float64(n)
	for _, fi := range path[:n] {
		acc[fi] += w
	}
	return true
}
