package core

import (
	"testing"

	"vqoe/internal/features"
	"vqoe/internal/ml"
	"vqoe/internal/workload"
)

func obsFrom(sessions []*workload.Session) []features.SessionObs {
	out := make([]features.SessionObs, len(sessions))
	for i, s := range sessions {
		out[i] = s.Obs
	}
	return out
}

// denseRows is the dense dataset path the batch evaluator is held to:
// every session featurized full-width (as BuildStallDataset and
// BuildRepDataset do), then SelectFeatures onto d's selection.
func denseRows(t testing.TB, d *Detector, featurize func(features.SessionObs) []float64, obs []features.SessionObs) [][]float64 {
	t.Helper()
	ds := ml.NewDataset(d.full, d.Forest.Classes)
	for _, o := range obs {
		ds.Add(featurize(o), 0)
	}
	reduced, err := ds.SelectFeatures(d.Selected)
	if err != nil {
		t.Fatal(err)
	}
	return reduced.X
}

// verdicts is one PredictBatchInto pass over rows: each row's class
// and the forest's confidence in it.
func verdicts(f *ml.Forest, rows [][]float64) ([]int, []float64) {
	nc := len(f.Classes)
	votes := make([]float64, len(rows)*nc)
	classes := f.PredictBatchInto(rows, votes, make([]int, len(rows)))
	conf := make([]float64, len(rows))
	for i, c := range classes {
		conf[i] = f.Confidence(votes[i*nc:(i+1)*nc], c)
	}
	return classes, conf
}

// AnalyzeBatchInto is the live engine's inference entry point; a
// batch's reports must not depend on its size, so a batch of many
// equals per-session Analyze calls (batches of one).
func TestAnalyzeBatchMatchesAnalyze(t *testing.T) {
	testCorpora(t)
	fw := &Framework{Stall: stallDet, Rep: repDet, Switch: NewSwitchDetector()}

	sessions := encCorpus.Sessions
	if len(sessions) > 60 {
		sessions = sessions[:60]
	}
	batch := fw.AnalyzeBatchInto(obsFrom(sessions), nil, nil)
	if len(batch) != len(sessions) {
		t.Fatalf("batch returned %d reports for %d sessions", len(batch), len(sessions))
	}
	for i, s := range sessions {
		want := fw.Analyze(s.Obs)
		if batch[i] != want {
			t.Fatalf("session %d: batch %+v vs single %+v", i, batch[i], want)
		}
	}
	if got := fw.AnalyzeBatchInto(nil, nil, nil); got != nil {
		t.Error("empty batch should produce no reports")
	}
}

// TestAnalyzeReusesEvaluator: a one-session Analyze grows a fresh
// scratch — projected rows, vote rows, series buffers, 22 allocations
// on this session — but not the two-model evaluator plan, which the
// framework builds once on first use and every later call reads.
// Rebuilding the plan per call cost 17 more.
func TestAnalyzeReusesEvaluator(t *testing.T) {
	testCorpora(t)
	fw := &Framework{Stall: stallDet, Rep: repDet, Switch: NewSwitchDetector()}
	o := encCorpus.Sessions[0].Obs
	fw.Analyze(o)
	if avg := testing.AllocsPerRun(50, func() { fw.Analyze(o) }); avg > 22 {
		t.Errorf("Analyze allocates %v per call, want at most 22", avg)
	}
}
