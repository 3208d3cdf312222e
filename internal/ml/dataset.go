// Package ml implements the machine-learning stack the paper's
// detection framework is built on: CART decision trees, Random Forest
// classification, stratified cross-validation, class balancing,
// information gain ranking and Correlation-based Feature Subset
// selection (CFS) with best-first search — the same algorithms the
// authors used through Weka, reimplemented on the standard library.
package ml

import (
	"fmt"

	"vqoe/internal/stats"
)

// Dataset is a labelled feature matrix. Rows are instances; columns are
// named features. Labels are class indices into Classes.
type Dataset struct {
	Names   []string    // feature names, len == number of columns
	X       [][]float64 // instances, each of len(Names)
	Y       []int       // class index per instance
	Classes []string    // class names
}

// NewDataset allocates an empty dataset with the given schema.
func NewDataset(names, classes []string) *Dataset {
	return &Dataset{Names: names, Classes: classes}
}

// Add appends one instance. It panics if the row width does not match
// the schema — that is always a programming error, not bad data.
func (d *Dataset) Add(row []float64, class int) {
	if len(row) != len(d.Names) {
		panic(fmt.Sprintf("ml: row has %d features, schema has %d", len(row), len(d.Names)))
	}
	if class < 0 || class >= len(d.Classes) {
		panic(fmt.Sprintf("ml: class %d out of range [0,%d)", class, len(d.Classes)))
	}
	d.X = append(d.X, row)
	d.Y = append(d.Y, class)
}

// Len reports the number of instances.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures reports the number of columns.
func (d *Dataset) NumFeatures() int { return len(d.Names) }

// NumClasses reports the number of classes.
func (d *Dataset) NumClasses() int { return len(d.Classes) }

// Subset returns a view containing the rows at the given indices. Rows
// are shared, not copied; mutating instance values through a subset
// mutates the parent.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := NewDataset(d.Names, d.Classes)
	out.X = make([][]float64, len(idx))
	out.Y = make([]int, len(idx))
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// SelectFeatures returns a copy of the dataset keeping only the named
// columns, in the order given. Unknown names are an error.
func (d *Dataset) SelectFeatures(names []string) (*Dataset, error) {
	cols := make([]int, len(names))
	for i, n := range names {
		c := d.FeatureIndex(n)
		if c < 0 {
			return nil, fmt.Errorf("ml: unknown feature %q", n)
		}
		cols[i] = c
	}
	out := NewDataset(names, d.Classes)
	out.X = make([][]float64, len(d.X))
	out.Y = make([]int, len(d.Y))
	copy(out.Y, d.Y)
	for i, row := range d.X {
		nr := make([]float64, len(cols))
		for j, c := range cols {
			nr[j] = row[c]
		}
		out.X[i] = nr
	}
	return out, nil
}

// FeatureIndex returns the column index of the named feature, or -1.
func (d *Dataset) FeatureIndex(name string) int {
	for i, n := range d.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Column returns a copy of column c's values.
func (d *Dataset) Column(c int) []float64 {
	out := make([]float64, len(d.X))
	for i, row := range d.X {
		out[i] = row[c]
	}
	return out
}

// Balance undersamples every class to the size of the smallest class,
// mirroring the paper's protocol of balancing instances before training
// and restoring the original distribution for testing (§4.1). The
// returned dataset shares rows with the receiver.
func (d *Dataset) Balance(r *stats.Rand) *Dataset {
	byClass := make([][]int, len(d.Classes))
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	minCount := -1
	for _, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		if minCount < 0 || len(idx) < minCount {
			minCount = len(idx)
		}
	}
	if minCount <= 0 {
		return d.Subset(nil)
	}
	var keep []int
	for _, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		perm := r.Perm(len(idx))
		for _, p := range perm[:minCount] {
			keep = append(keep, idx[p])
		}
	}
	// shuffle so class blocks don't survive into bootstrap samples
	r.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
	return d.Subset(keep)
}

// StratifiedFolds partitions instance indices into k folds preserving
// the class distribution of the full dataset. Classes with fewer than k
// members are spread across as many folds as they have members.
func (d *Dataset) StratifiedFolds(k int, r *stats.Rand) [][]int {
	if k < 2 {
		k = 2
	}
	folds := make([][]int, k)
	byClass := make([][]int, len(d.Classes))
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	for _, idx := range byClass {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, inst := range idx {
			folds[i%k] = append(folds[i%k], inst)
		}
	}
	return folds
}

// Split returns train/test index sets where fold f is the test set.
func Split(folds [][]int, f int) (train, test []int) {
	for i, fold := range folds {
		if i == f {
			test = append(test, fold...)
		} else {
			train = append(train, fold...)
		}
	}
	return train, test
}
