package ml

import (
	"testing"
	"testing/quick"

	"vqoe/internal/stats"
)

func twoClassDataset() *Dataset {
	ds := NewDataset([]string{"a", "b"}, []string{"neg", "pos"})
	ds.Add([]float64{1, 10}, 0)
	ds.Add([]float64{2, 20}, 0)
	ds.Add([]float64{3, 30}, 0)
	ds.Add([]float64{4, 40}, 1)
	return ds
}

// labelCounts is the number of instances per class of ds.
func labelCounts(ds *Dataset) []int {
	counts := make([]int, ds.NumClasses())
	for _, y := range ds.Y {
		counts[y]++
	}
	return counts
}

func TestAddAndAccessors(t *testing.T) {
	ds := twoClassDataset()
	if ds.Len() != 4 || ds.NumFeatures() != 2 || ds.NumClasses() != 2 {
		t.Fatalf("dims wrong: %d/%d/%d", ds.Len(), ds.NumFeatures(), ds.NumClasses())
	}
	counts := labelCounts(ds)
	if counts[0] != 3 || counts[1] != 1 {
		t.Errorf("class counts = %v", counts)
	}
	col := ds.Column(1)
	if col[2] != 30 {
		t.Errorf("column read wrong: %v", col)
	}
}

func TestAddPanicsOnBadRow(t *testing.T) {
	ds := twoClassDataset()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong-width row")
		}
	}()
	ds.Add([]float64{1}, 0)
}

func TestAddPanicsOnBadClass(t *testing.T) {
	ds := twoClassDataset()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range class")
		}
	}()
	ds.Add([]float64{1, 2}, 7)
}

func TestSubset(t *testing.T) {
	ds := twoClassDataset()
	sub := ds.Subset([]int{3, 0})
	if sub.Len() != 2 || sub.Y[0] != 1 || sub.X[1][0] != 1 {
		t.Errorf("subset wrong: %+v", sub)
	}
}

func TestSelectFeatures(t *testing.T) {
	ds := twoClassDataset()
	sel, err := ds.SelectFeatures([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumFeatures() != 1 || sel.X[2][0] != 30 {
		t.Errorf("select wrong: %+v", sel)
	}
	if _, err := ds.SelectFeatures([]string{"zzz"}); err == nil {
		t.Error("unknown feature should error")
	}
}

func TestFeatureIndex(t *testing.T) {
	ds := twoClassDataset()
	if ds.FeatureIndex("b") != 1 || ds.FeatureIndex("nope") != -1 {
		t.Error("FeatureIndex wrong")
	}
}

func TestBalanceUndersamples(t *testing.T) {
	ds := NewDataset([]string{"x"}, []string{"a", "b", "c"})
	for i := 0; i < 100; i++ {
		ds.Add([]float64{float64(i)}, 0)
	}
	for i := 0; i < 10; i++ {
		ds.Add([]float64{float64(i)}, 1)
	}
	for i := 0; i < 5; i++ {
		ds.Add([]float64{float64(i)}, 2)
	}
	bal := ds.Balance(stats.NewRand(1))
	counts := labelCounts(bal)
	if counts[0] != 5 || counts[1] != 5 || counts[2] != 5 {
		t.Errorf("balance counts = %v, want all 5", counts)
	}
}

func TestBalanceSkipsEmptyClasses(t *testing.T) {
	ds := NewDataset([]string{"x"}, []string{"a", "b", "c"})
	for i := 0; i < 6; i++ {
		ds.Add([]float64{float64(i)}, i%2) // classes a and b only
	}
	bal := ds.Balance(stats.NewRand(1))
	counts := labelCounts(bal)
	if counts[0] != 3 || counts[1] != 3 || counts[2] != 0 {
		t.Errorf("balance with empty class = %v", counts)
	}
}

func TestStratifiedFoldsPartition(t *testing.T) {
	ds := NewDataset([]string{"x"}, []string{"a", "b"})
	for i := 0; i < 50; i++ {
		ds.Add([]float64{float64(i)}, 0)
	}
	for i := 0; i < 10; i++ {
		ds.Add([]float64{float64(i)}, 1)
	}
	folds := ds.StratifiedFolds(5, stats.NewRand(1))
	seen := map[int]bool{}
	total := 0
	for _, fold := range folds {
		nb := 0
		for _, i := range fold {
			if seen[i] {
				t.Fatalf("instance %d in two folds", i)
			}
			seen[i] = true
			total++
			if ds.Y[i] == 1 {
				nb++
			}
		}
		if nb != 2 {
			t.Errorf("fold has %d minority instances, want 2", nb)
		}
	}
	if total != ds.Len() {
		t.Errorf("folds cover %d of %d instances", total, ds.Len())
	}
}

// Property: stratified folds always partition the dataset exactly, for
// any fold count and class arrangement.
func TestStratifiedFoldsPartitionProperty(t *testing.T) {
	f := func(labels []uint8, k uint8) bool {
		if len(labels) == 0 {
			return true
		}
		ds := NewDataset([]string{"x"}, []string{"a", "b", "c"})
		for i, l := range labels {
			ds.Add([]float64{float64(i)}, int(l%3))
		}
		kk := int(k%9) + 2
		folds := ds.StratifiedFolds(kk, stats.NewRand(7))
		seen := map[int]int{}
		for _, fold := range folds {
			for _, i := range fold {
				seen[i]++
			}
		}
		if len(seen) != ds.Len() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplit(t *testing.T) {
	folds := [][]int{{0, 1}, {2}, {3, 4}}
	train, test := Split(folds, 1)
	if len(test) != 1 || test[0] != 2 {
		t.Errorf("test = %v", test)
	}
	if len(train) != 4 {
		t.Errorf("train = %v", train)
	}
}
