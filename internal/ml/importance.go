package ml

import (
	"sort"

	"vqoe/internal/stats"
)

// Model inspection: permutation feature importance. It does not
// appear in the paper's method, but it is a standard Random Forest
// diagnostic an operator deploying the framework would want when
// deciding whether to retrain after a service change (§7: "the
// models... need to be trained and evaluated again with an updated
// dataset").

// Importance is one feature's permutation importance: the accuracy
// drop when that feature's column is shuffled.
type Importance struct {
	Name string
	Drop float64
}

// PermutationImportance measures each feature's contribution to the
// forest's accuracy on the given dataset: a feature whose permutation
// barely moves accuracy carries little unique information. Returns
// features ordered by descending drop.
func PermutationImportance(f *Forest, ds *Dataset, seed int64) []Importance {
	base := Evaluate(f, ds).Accuracy()
	r := stats.NewRand(seed)
	out := make([]Importance, ds.NumFeatures())
	n := ds.Len()
	for col := 0; col < ds.NumFeatures(); col++ {
		// permute the column out-of-place
		perm := r.Perm(n)
		shuffled := &Dataset{Names: ds.Names, Classes: ds.Classes, Y: ds.Y}
		shuffled.X = make([][]float64, n)
		for i := range shuffled.X {
			row := make([]float64, len(ds.X[i]))
			copy(row, ds.X[i])
			row[col] = ds.X[perm[i]][col]
			shuffled.X[i] = row
		}
		acc := Evaluate(f, shuffled).Accuracy()
		out[col] = Importance{Name: ds.Names[col], Drop: base - acc}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Drop > out[j].Drop })
	return out
}
