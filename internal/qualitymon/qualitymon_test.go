package qualitymon

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestPSIHandComputed(t *testing.T) {
	expected := []float64{0.5, 0.3, 0.2}
	observed := []float64{0.4, 0.4, 0.2}
	// only the two differing bins contribute:
	// (0.4-0.5)·ln(0.4/0.5) + (0.4-0.3)·ln(0.4/0.3)
	want := (0.4-0.5)*math.Log(0.4/0.5) + (0.4-0.3)*math.Log(0.4/0.3)
	if got := PSI(expected, observed); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PSI = %v, want %v", got, want)
	}
	if want <= 0 {
		t.Fatalf("fixture is degenerate: want %v should be positive", want)
	}
}

func TestPSISelfIsExactlyZero(t *testing.T) {
	// identical distributions must give exactly 0, including bins below
	// the epsilon floor and empty bins
	cases := [][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.5, 0.5, 0, 0},
		{1, 0, 0},
		{0.99995, 0.00005, 0}, // below psiEps
	}
	for _, p := range cases {
		if got := PSI(p, p); got != 0 {
			t.Errorf("PSI(%v, %v) = %v, want exactly 0", p, p, got)
		}
	}
}

func TestPSIEmptyBinIsFinite(t *testing.T) {
	got := PSI([]float64{0.5, 0.5, 0}, []float64{0.5, 0, 0.5})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("PSI with empty bins = %v, want finite", got)
	}
	if got <= 0.2 {
		t.Fatalf("PSI with a fully moved bin = %v, want a significant shift (> 0.2)", got)
	}
}

func TestQuantileEdgesAndBinIndex(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i + 1) // 1..100
	}
	edges := QuantileEdges(values, 10)
	if len(edges) != 9 {
		t.Fatalf("got %d edges, want 9", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] < edges[i-1] {
			t.Fatalf("edges not ascending: %v", edges)
		}
	}
	if got := BinIndex(edges, 0); got != 0 {
		t.Errorf("below-range value binned at %d, want 0", got)
	}
	if got := BinIndex(edges, 1e9); got != 9 {
		t.Errorf("above-range value binned at %d, want 9", got)
	}
	// upper edge is inclusive: the edge value itself stays in its bin
	if got := BinIndex(edges, edges[0]); got != 0 {
		t.Errorf("edge value binned at %d, want 0", got)
	}
	if got := BinIndex(edges, edges[0]+0.5); got != 1 {
		t.Errorf("value past first edge binned at %d, want 1", got)
	}
}

// TestCaptureBaselineSelfPSI pins the core identity the drift detector
// relies on: re-binning the training set through its own baseline gives
// PSI exactly 0 for every feature, independent of sample order.
func TestCaptureBaselineSelfPSI(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n, nf = 500, 3
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := range X {
		X[i] = []float64{r.NormFloat64(), r.ExpFloat64(), float64(r.Intn(5))}
		Y[i] = r.Intn(2)
	}
	b := CaptureBaseline([]string{"f0", "f1", "f2"}, X, Y, []string{"a", "b"}, DefaultBins)

	rebin := func(rows [][]float64, f int) []float64 {
		counts := make([]int64, b.Bins())
		for _, row := range rows {
			counts[BinIndex(b.Edges[f], row[f])]++
		}
		return Proportions(counts)
	}
	shuffled := append([][]float64(nil), X...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for f := 0; f < nf; f++ {
		if got := PSI(b.Expected[f], rebin(X, f)); got != 0 {
			t.Errorf("feature %d: self PSI = %v, want exactly 0", f, got)
		}
		if got := PSI(b.Expected[f], rebin(shuffled, f)); got != 0 {
			t.Errorf("feature %d: shuffled self PSI = %v, want exactly 0 (order invariance)", f, got)
		}
	}
	var priorSum float64
	for _, p := range b.Priors {
		priorSum += p
	}
	if math.Abs(priorSum-1) > 1e-12 {
		t.Fatalf("priors sum to %v, want 1", priorSum)
	}
}

func TestConfBinClamps(t *testing.T) {
	if got := ConfBin(-0.5, 10); got != 0 {
		t.Errorf("ConfBin(-0.5) = %d, want 0", got)
	}
	if got := ConfBin(1.0, 10); got != 9 {
		t.Errorf("ConfBin(1.0) = %d, want 9", got)
	}
	if got := ConfBin(0.55, 10); got != 5 {
		t.Errorf("ConfBin(0.55) = %d, want 5", got)
	}
}

func TestCalibrationECEHandComputed(t *testing.T) {
	c := NewTally([]string{"a", "b"})
	// bin 9: four predictions at 0.95, all correct → |1.0 − 0.95| = 0.05
	for i := 0; i < 4; i++ {
		c.Observe(1, 1, 0.95)
	}
	// bin 5: six predictions at 0.55, three correct → |0.5 − 0.55| = 0.05
	for i := 0; i < 6; i++ {
		c.Observe(0, i/3, 0.55)
	}
	if got, want := c.ECE(), 0.4*0.05+0.6*0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("ECE = %v, want %v", got, want)
	}
	if got, want := c.Accuracy(), 0.7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Accuracy = %v, want %v", got, want)
	}
	if got := c.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}

	other := NewTally([]string{"a", "b"})
	other.Observe(0, 0, 0.95)
	c.Merge(other)
	if got := c.Total(); got != 11 {
		t.Errorf("Total after merge = %d, want 11", got)
	}
}

// testBaseline sketches a single uniform feature on [0,100) with a
// perfect held-out calibration record, so drift and accuracy-drop
// scenarios are easy to stage.
func testBaseline(t testing.TB) *Baseline {
	t.Helper()
	X := make([][]float64, 200)
	Y := make([]int, 200)
	for i := range X {
		X[i] = []float64{float64(i % 100)}
		Y[i] = i % 2
	}
	b := CaptureBaseline([]string{"f0"}, X, Y, []string{"a", "b"}, DefaultBins)
	b.Calibration = *NewTally(b.Classes)
	for i := 0; i < 40; i++ {
		b.Calibration.Observe(i%2, i%2, 0.9)
	}
	return b
}

func testMonitor(t testing.TB, stallBase *Baseline) *Monitor {
	t.Helper()
	m := New(Config{
		Shards: 2,
		Stall:  ModelConfig{Name: "stall", Classes: []string{"a", "b"}, Baseline: stallBase},
		Rep:    ModelConfig{Name: "rep", Classes: []string{"x", "y"}},
	})
	if m == nil {
		t.Fatal("New returned nil for a valid config")
	}
	return m
}

func TestMonitorNoBaselineStatus(t *testing.T) {
	m := testMonitor(t, nil)
	for i := 0; i < 20; i++ {
		m.Stall.Observe(i%2, []float64{float64(i)}, i%2, 0.8)
		m.Rep.Observe(i%2, []float64{float64(i)}, 0, 0.9)
	}
	sn := m.Snapshot()
	for _, ms := range sn.Models {
		if ms.Status != StatusNoBaseline {
			t.Errorf("model %s status %q, want %q", ms.Name, ms.Status, StatusNoBaseline)
		}
		if ms.HasBaseline || ms.Degraded {
			t.Errorf("model %s: HasBaseline=%v Degraded=%v, want false/false", ms.Name, ms.HasBaseline, ms.Degraded)
		}
	}
	if sn.Models[0].Samples != 20 {
		t.Errorf("stall samples = %d, want 20 (prediction counting works without baseline)", sn.Models[0].Samples)
	}
	if sn.Degraded {
		t.Error("snapshot degraded without any baseline to compare against")
	}
}

func TestMonitorDriftDegrades(t *testing.T) {
	// in-distribution traffic: uniform over the training range
	m := testMonitor(t, testBaseline(t))
	for i := 0; i < minSamples; i++ {
		m.Stall.Observe(i%2, []float64{float64(i % 100)}, i%2, 0.9)
	}
	sn := m.Snapshot()
	ms := sn.Models[0]
	if ms.Status != StatusOK {
		t.Fatalf("in-distribution status %q (reasons %v), want %q", ms.Status, ms.Reasons, StatusOK)
	}
	if ms.MaxPSI > 0.1 {
		t.Errorf("in-distribution MaxPSI = %v, want < 0.1", ms.MaxPSI)
	}

	// drifted traffic: every value beyond the training range lands in
	// the top bin
	m2 := testMonitor(t, testBaseline(t))
	for i := 0; i < minSamples; i++ {
		m2.Stall.Observe(i%2, []float64{1000 + float64(i)}, i%2, 0.9)
	}
	sn2 := m2.Snapshot()
	ms2 := sn2.Models[0]
	if ms2.Status != StatusDegraded || !sn2.Degraded {
		t.Fatalf("drifted status %q degraded=%v, want degraded", ms2.Status, sn2.Degraded)
	}
	if ms2.MaxPSI <= 0.2 {
		t.Errorf("drifted MaxPSI = %v, want > 0.2", ms2.MaxPSI)
	}
	if len(ms2.Features) != 1 || !ms2.Features[0].Drifted {
		t.Errorf("drifted feature not flagged: %+v", ms2.Features)
	}
}

// TestMonitorBelowMinSamplesNeverDegrades: fully drifted traffic
// leaves the model ok until the minSamples-th prediction, which trips
// the PSI checks.
func TestMonitorBelowMinSamplesNeverDegrades(t *testing.T) {
	m := testMonitor(t, testBaseline(t))
	for i := 0; i < minSamples-1; i++ {
		m.Stall.Observe(0, []float64{1000}, 0, 0.9)
	}
	ms := m.Snapshot().Models[0]
	if ms.Status != StatusOK {
		t.Fatalf("status %q with %d samples, want %q (PSI gated by minSamples)", ms.Status, ms.Samples, StatusOK)
	}
	m.Stall.Observe(0, []float64{1000}, 0, 0.9)
	if ms := m.Snapshot().Models[0]; ms.Status != StatusDegraded {
		t.Fatalf("status %q with %d samples, want %q", ms.Status, ms.Samples, StatusDegraded)
	}
}

func TestMonitorLabelMatchingBothOrders(t *testing.T) {
	m := testMonitor(t, testBaseline(t))

	// prediction first, label second
	m.TrackPrediction(Prediction{Subscriber: "s1", Start: 0, End: 10, Stall: 1, Rep: 0, StallConf: 0.9, RepConf: 0.8})
	if !m.ObserveLabel(Label{Subscriber: "s1", Start: 0, End: 10, Stall: 1, Rep: 0}) {
		t.Fatal("label after prediction did not match")
	}

	// label first, prediction second
	if m.ObserveLabel(Label{Subscriber: "s2", Start: 5, End: 25, Stall: 0, Rep: 1}) {
		t.Fatal("label with no tracked prediction reported a match")
	}
	m.TrackPrediction(Prediction{Subscriber: "s2", Start: 4, End: 24, Stall: 1, Rep: 1, StallConf: 0.6, RepConf: 0.7})

	// split session with both fragments already assessed: the
	// dominant-overlap fragment wins when the label arrives
	m.TrackPrediction(Prediction{Subscriber: "s3", Start: 90, End: 95, Stall: 0, Rep: 0}) // 5s overlap
	m.TrackPrediction(Prediction{Subscriber: "s3", Start: 0, End: 80, Stall: 1, Rep: 1})  // 80s overlap
	if !m.ObserveLabel(Label{Subscriber: "s3", Start: 0, End: 100, Stall: 1, Rep: 1}) {
		t.Fatal("label spanning both fragments did not match")
	}

	// disjoint interval must not match
	if m.ObserveLabel(Label{Subscriber: "s1", Start: 500, End: 510, Stall: 0, Rep: 0}) {
		t.Fatal("disjoint label matched a prediction")
	}

	sn := m.Snapshot()
	if sn.Labels.Total != 4 {
		t.Errorf("labels total = %d, want 4", sn.Labels.Total)
	}
	if sn.Labels.Matched != 3 {
		t.Errorf("labels matched = %d, want 3", sn.Labels.Matched)
	}
	stall := sn.Models[0]
	if stall.Labeled != 3 {
		t.Fatalf("stall labeled = %d, want 3", stall.Labeled)
	}
	// s1 correct (1,1), s2 wrong (actual 0, predicted 1), s3 correct (1,1)
	if stall.Confusion[1][1] != 2 || stall.Confusion[0][1] != 1 {
		t.Errorf("stall confusion = %v, want [1][1]=2 [0][1]=1", stall.Confusion)
	}
	if want := 2.0 / 3.0; math.Abs(stall.OnlineAccuracy-want) > 1e-12 {
		t.Errorf("stall online accuracy = %v, want %v", stall.OnlineAccuracy, want)
	}
}

// TestMonitorCountsOutOfRangeLabels: a matched label whose class index
// lies outside a model's schema is counted per model as
// labels_out_of_range and left out of that model's confusion matrix,
// while the other model, whose classes are in range, scores it.
func TestMonitorCountsOutOfRangeLabels(t *testing.T) {
	m := testMonitor(t, testBaseline(t))
	m.TrackPrediction(Prediction{Subscriber: "s1", Start: 0, End: 10, Stall: 1, Rep: 0, StallConf: 0.9, RepConf: 0.8})
	if !m.ObserveLabel(Label{Subscriber: "s1", Start: 0, End: 10, Stall: 7, Rep: 0}) {
		t.Fatal("label did not match its prediction")
	}
	sn := m.Snapshot()
	stall, rep := sn.Models[0], sn.Models[1]
	if stall.LabelsOutOfRange != 1 || stall.Labeled != 0 {
		t.Errorf("stall: %d labels out of range, %d labeled; want 1 and 0", stall.LabelsOutOfRange, stall.Labeled)
	}
	if rep.LabelsOutOfRange != 0 || rep.Labeled != 1 {
		t.Errorf("rep: %d labels out of range, %d labeled; want 0 and 1", rep.LabelsOutOfRange, rep.Labeled)
	}
	if sn.Labels.Total != 1 || sn.Labels.Matched != 1 {
		t.Errorf("labels total %d, matched %d; want 1 and 1", sn.Labels.Total, sn.Labels.Matched)
	}
}

func TestMonitorAccuracyDropDegrades(t *testing.T) {
	m := testMonitor(t, testBaseline(t)) // baseline accuracy 1.0
	for i := 0; i < 100; i++ {           // healthy feature distribution
		m.Stall.Observe(0, []float64{float64(i % 100)}, 0, 0.9)
	}
	for i := 0; i < minLabels; i++ { // all wrong
		sub := string(rune('a' + i))
		m.TrackPrediction(Prediction{Subscriber: sub, Start: 0, End: 10, Stall: 0, Rep: 0, StallConf: 0.9})
		m.ObserveLabel(Label{Subscriber: sub, Start: 0, End: 10, Stall: 1, Rep: 0})
	}
	ms := m.Snapshot().Models[0]
	if ms.Status != StatusDegraded {
		t.Fatalf("status %q (reasons %v), want degraded on accuracy drop", ms.Status, ms.Reasons)
	}
	if ms.OnlineAccuracy != 0 || ms.BaselineAccuracy != 1 {
		t.Errorf("online %v baseline %v, want 0 and 1", ms.OnlineAccuracy, ms.BaselineAccuracy)
	}
	if ms.AccuracyDrop != 1 {
		t.Errorf("accuracy drop = %v, want 1", ms.AccuracyDrop)
	}
}

func TestMonitorPendingBounded(t *testing.T) {
	newMon := func() *Monitor {
		return New(Config{
			Shards: 1,
			Stall:  ModelConfig{Name: "stall", Classes: []string{"a", "b"}},
			Rep:    ModelConfig{Name: "rep", Classes: []string{"x", "y"}},
		})
	}
	m := newMon()
	m.pendingCap = 4
	for i := 0; i < 10; i++ {
		// same subscriber → same stripe; disjoint intervals → no matches
		m.TrackPrediction(Prediction{Subscriber: "s", Start: float64(100 * i), End: float64(100*i + 10)})
	}
	sn := m.Snapshot()
	if sn.Labels.PredsEvicted != 6 {
		t.Errorf("preds evicted = %d, want 6 (cap 4, 10 tracked)", sn.Labels.PredsEvicted)
	}
	// the oldest were evicted: a label for the newest interval still matches
	if !m.ObserveLabel(Label{Subscriber: "s", Start: 900, End: 910}) {
		t.Error("label for newest tracked prediction did not match after eviction")
	}
	if m.ObserveLabel(Label{Subscriber: "s", Start: 0, End: 10}) {
		t.Error("label for evicted prediction matched")
	}

	// a stripe at the default capacity, driven 1.5 times around: session i
	// is [100i, 100i+10] in both queues
	const slots = pendingPerStripe
	const n = slots + slots/2
	iv := func(i int) (float64, float64) { return float64(100 * i), float64(100*i + 10) }
	m = newMon()
	var wrong []Outcome
	m.SetOutcomeHook(func(o Outcome) {
		if o.Prediction.Start != o.Label.Start || o.Prediction.Stall != o.Label.Stall {
			wrong = append(wrong, o)
		}
	})
	for i := 0; i < n; i++ {
		a, b := iv(i)
		m.TrackPrediction(Prediction{Subscriber: "s", Start: a, End: b, Stall: i % 2})
	}
	if got := m.Snapshot().Labels.PredsEvicted; got != n-slots {
		t.Fatalf("preds evicted = %d, want %d (cap %d, %d tracked)", got, n-slots, slots, n)
	}
	// eviction is oldest-first: exactly sessions n-slots..n-1 are left, on
	// both sides of the wrap, and taking some out of the middle leaves
	// the rest matchable
	label := func(i int) bool {
		a, b := iv(i)
		return m.ObserveLabel(Label{Subscriber: "s", Start: a, End: b, Stall: i % 2})
	}
	for _, i := range []int{0, n - slots - 1} {
		if label(i) {
			t.Errorf("label for evicted prediction %d matched", i)
		}
	}
	for _, i := range []int{n - slots, n - slots + 1, slots - 1, slots, slots + 1, n - 2, n - 1, n - slots + 2, slots + 2} {
		if !label(i) {
			t.Errorf("label for resident prediction %d did not match", i)
		}
		if label(i) {
			t.Errorf("prediction %d matched twice", i)
		}
	}
	// the two unmatched labels and the nine repeats wait in the label
	// queue; wrap that one too and match in the other direction
	pendingLabels := 2 + 9
	for i := n; i < 2*n; i++ {
		if label(i) {
			t.Fatalf("label %d matched a prediction never tracked", i)
		}
		pendingLabels++
	}
	if got, want := m.Snapshot().Labels.LabelsEvicted, int64(pendingLabels-slots); got != want {
		t.Fatalf("labels evicted = %d, want %d", got, want)
	}
	matched := m.Snapshot().Labels.Matched
	for _, i := range []int{2*n - slots, 2*n - 1, n + slots - 1, n + slots, 2*n - slots + 1} {
		a, b := iv(i)
		m.TrackPrediction(Prediction{Subscriber: "s", Start: a, End: b, Stall: i % 2})
		if matched++; m.Snapshot().Labels.Matched != matched {
			t.Errorf("prediction %d did not match its waiting label", i)
		}
	}
	a, b := iv(2*n - slots - 1)
	m.TrackPrediction(Prediction{Subscriber: "s", Start: a, End: b})
	if m.Snapshot().Labels.Matched != matched {
		t.Error("prediction matched an evicted label")
	}
	if len(wrong) > 0 {
		t.Errorf("%d pairs resolved across sessions, first %+v", len(wrong), wrong[0])
	}
	// ties go to the oldest: two waiting predictions overlap a label equally
	m = newMon()
	m.pendingCap = 4
	for i := 0; i < 6; i++ { // wraps; the last four stay
		m.TrackPrediction(Prediction{Subscriber: "s", Start: 0, End: 10, Stall: i})
	}
	var first Outcome
	m.SetOutcomeHook(func(o Outcome) { first = o })
	if !m.ObserveLabel(Label{Subscriber: "s", Start: 0, End: 10}) || first.Prediction.Stall != 2 {
		t.Errorf("equal overlaps resolved to prediction %d, want the oldest resident (2)", first.Prediction.Stall)
	}
}

// BenchmarkTrackPredictionEmptyStripe and …FullStripe are the close
// path's call into the monitor for a session no label is waiting for —
// nearly all of them — before and after its stripe has filled. The two
// must stay within 2× of each other: a stripe fills after 4,096
// unlabeled sessions and stays full for the life of the process.
func BenchmarkTrackPredictionEmptyStripe(b *testing.B) { benchTrack(b, false) }
func BenchmarkTrackPredictionFullStripe(b *testing.B)  { benchTrack(b, true) }

// BenchmarkObserveShardsInParallel is two shard workers recording
// sessions at once, each into its own cells — the engine's close path
// at two shards. A line the two share would make every write of one
// miss in the other's cache.
func BenchmarkObserveShardsInParallel(b *testing.B) {
	m := testMonitor(b, testBaseline(b))
	var wg sync.WaitGroup
	b.ResetTimer()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x := []float64{0}
			for i := 0; i < b.N; i++ {
				x[0] = float64(i % 100)
				m.Stall.Observe(s, x, i%2, 0.9)
				m.ObserveSwitch(s, float64(i%1000), i%3 == 0, i%50)
			}
		}(s)
	}
	wg.Wait()
}

func benchTrack(b *testing.B, full bool) {
	newMon := func() *Monitor {
		m := New(Config{
			Shards: 1,
			Stall:  ModelConfig{Name: "stall", Classes: []string{"a", "b"}},
			Rep:    ModelConfig{Name: "rep", Classes: []string{"x", "y"}},
		})
		if full {
			for i := 0; i < 4096; i++ {
				m.TrackPrediction(Prediction{Subscriber: "s"})
			}
		}
		return m
	}
	m := newMon()
	p := Prediction{Subscriber: "s", Start: 10, End: 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !full && i%2048 == 2047 {
			// keep the stripe far from full: the row is the cost before it fills
			b.StopTimer()
			m = newMon()
			b.StartTimer()
		}
		m.TrackPrediction(p)
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.TrackPrediction(Prediction{})
	if m.ObserveLabel(Label{}) {
		t.Error("nil monitor matched a label")
	}
	m.ObserveSwitch(0, 1, false, 1)
	sn := m.Snapshot()
	if len(sn.Models) != 0 {
		t.Errorf("nil snapshot has %d models, want 0", len(sn.Models))
	}
	if sn.Thresholds != DefaultThresholds() {
		t.Errorf("nil snapshot thresholds = %+v, want defaults", sn.Thresholds)
	}
	var mm *ModelMonitor
	mm.Observe(0, nil, 0, 0)
}

func TestSwitchSnapshot(t *testing.T) {
	m := testMonitor(t, nil)
	m.ObserveSwitch(0, 40, false, 3)
	m.ObserveSwitch(1, 600, true, 64)
	m.ObserveSwitch(5, 10000, true, 5000) // shard index wraps
	sw := m.Snapshot().Switch
	if sw.Sessions != 3 || sw.Varying != 2 {
		t.Fatalf("switch sessions=%d varying=%d, want 3 and 2", sw.Sessions, sw.Varying)
	}
	if want := (40.0 + 600 + 10000) / 3; math.Abs(sw.MeanScore-want) > 1e-9 || sw.ScoreSum != 10640 {
		t.Errorf("mean score = %v, sum %v, want %v and 10640", sw.MeanScore, sw.ScoreSum, want)
	}
	var n int64
	for _, c := range sw.ScoreCounts {
		n += c
	}
	if n != 3 {
		t.Errorf("score histogram holds %d sessions, want 3", n)
	}
	// chunk counts bin by upper edge: 3 ≤ 4, 64 ≤ 64, 5000 overflows
	want := make([]int64, len(sw.ChunkEdges)+1)
	want[0], want[4], want[len(want)-1] = 1, 1, 1
	if fmt.Sprint(sw.ChunkCounts) != fmt.Sprint(want) || sw.ChunkEdges[4] != 64 || sw.ChunkSum != 5067 {
		t.Errorf("chunk histogram %v over %v, sum %d; want %v, sum 5067", sw.ChunkCounts, sw.ChunkEdges, sw.ChunkSum, want)
	}
}

// ParseLabelLine is the one demux both JSONL doors share: entries and
// foreign "type" values fall through, label lines decode, and a label
// line that does not decode is reported as a label with an error so
// each door can apply its own policy.
func TestParseLabelLine(t *testing.T) {
	for _, tc := range []struct {
		line            string
		isLabel, hasErr bool
	}{
		{`{"subscriber":"s","timestamp":1}`, false, false},
		{`{"type":"probe","subscriber":"s"}`, false, false},
		{`{"uri":"/x?\"type\"","subscriber":"s"}`, false, false},
		{`{"type":"label","subscriber":"s","start":1,"end":2,"stall":1,"rep":2}`, true, false},
		{`{"type":"label","subscriber":"s","stall":"severe"}`, true, true},
	} {
		l, isLabel, err := ParseLabelLine([]byte(tc.line))
		if isLabel != tc.isLabel || (err != nil) != tc.hasErr {
			t.Errorf("%s: isLabel=%v err=%v, want %v/%v", tc.line, isLabel, err, tc.isLabel, tc.hasErr)
		}
		if tc.isLabel && !tc.hasErr && (l.Subscriber != "s" || l.Stall != 1 || l.Rep != 2) {
			t.Errorf("%s: decoded %+v", tc.line, l)
		}
	}
}
