package core

import (
	"testing"

	"vqoe/internal/features"
	"vqoe/internal/workload"
)

func obsFrom(sessions []*workload.Session) []features.SessionObs {
	out := make([]features.SessionObs, len(sessions))
	for i, s := range sessions {
		out[i] = s.Obs
	}
	return out
}

// AnalyzeBatchInto is the live engine's inference entry point; it must
// be indistinguishable from per-session Analyze calls.
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
