package pipeline

import (
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

var (
	fwOnce sync.Once
	fw     *core.Framework
	study  *workload.Study
)

func testFramework(t *testing.T) (*core.Framework, *workload.Study) {
	t.Helper()
	fwOnce.Do(func() {
		clearCfg := workload.DefaultConfig(700)
		clearCfg.Seed = 31
		hasCfg := workload.DefaultConfig(350)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Seed = 32
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 15
		var err error
		fw, _, err = core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), tcfg)
		if err != nil {
			panic(err)
		}
		scfg := workload.DefaultStudyConfig()
		scfg.Sessions = 20
		scfg.Seed = 33
		study = workload.GenerateStudy(scfg)
	})
	return fw, study
}

// watchServer builds the server the way qoewatch does: the live engine
// at one shard with sweeps off, so sessions close only on §5.2
// boundaries, an explicit Advance, or Drain.
func watchServer(t *testing.T, fw *core.Framework) *Server {
	t.Helper()
	s := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 1, SweepEverySec: -1}})
	t.Cleanup(func() { s.Drain() })
	return s
}

// streamThrough feeds entries one per Ingest call — each report comes
// back from the call whose entry closed its session — then drains.
func streamThrough(s *Server, entries []weblog.Entry) []SessionReport {
	var reports []SessionReport
	for _, e := range entries {
		reps, _ := s.Engine().Ingest([]weblog.Entry{e})
		reports = append(reports, reps...)
	}
	return append(reports, s.Drain()...)
}

func openSessions(s *Server) int {
	n := 0
	for _, sh := range s.Engine().Snapshot() {
		n += sh.Open
	}
	return n
}

func TestStreamingMatchesBatchSessionCount(t *testing.T) {
	fw, study := testFramework(t)
	s := watchServer(t, fw)
	reports := streamThrough(s, study.Stream)
	// the study has 20 sequential sessions; each should emit one report
	if len(reports) < 18 || len(reports) > 22 {
		t.Errorf("emitted %d reports for 20 sessions", len(reports))
	}
	if n := openSessions(s); n != 0 {
		t.Errorf("%d sessions left open after drain", n)
	}
}

func TestReportsCarryAssessments(t *testing.T) {
	fw, study := testFramework(t)
	for _, r := range streamThrough(watchServer(t, fw), study.Stream) {
		if r.Subscriber != "study-device" {
			t.Fatalf("subscriber %q", r.Subscriber)
		}
		if r.End < r.Start {
			t.Fatal("report interval inverted")
		}
		if r.Report.Chunks < engine.DefaultConfig().MinChunks {
			t.Fatalf("report with %d chunks below minimum", r.Report.Chunks)
		}
		if int(r.Report.Stall) < 0 || int(r.Report.Stall) > 2 {
			t.Fatal("invalid stall label")
		}
	}
}

func TestPushIgnoresForeignHosts(t *testing.T) {
	fw, _ := testFramework(t)
	s := watchServer(t, fw)
	if got, _ := s.Engine().Ingest([]weblog.Entry{{Host: "ads.example.com", Subscriber: "x"}}); len(got) != 0 {
		t.Error("foreign host should not emit")
	}
	if openSessions(s) != 0 {
		t.Error("foreign host should not open a session")
	}
}

func TestAdvanceClosesIdleSessions(t *testing.T) {
	fw, study := testFramework(t)
	s := watchServer(t, fw)
	// feed only the first session's worth of entries
	first := study.StreamLabels[0]
	for i, e := range study.Stream {
		if study.StreamLabels[i] != first {
			break
		}
		s.Engine().Ingest([]weblog.Entry{e})
	}
	if n := openSessions(s); n != 1 {
		t.Fatalf("open sessions = %d", n)
	}
	if got := s.Engine().Advance(1e9); len(got) != 1 {
		t.Errorf("advance emitted %d reports, want 1", len(got))
	}
	if openSessions(s) != 0 {
		t.Error("advance should close the idle session")
	}
	// advancing again is a no-op
	if got := s.Engine().Advance(2e9); len(got) != 0 {
		t.Error("second advance should be empty")
	}
}

func TestFragmentsSuppressed(t *testing.T) {
	fw, _ := testFramework(t)
	// a lone page load with no media must not produce a report
	got := streamThrough(watchServer(t, fw), []weblog.Entry{{Host: weblog.HostPage, Subscriber: "s", Timestamp: 0}})
	if len(got) != 0 {
		t.Errorf("fragment emitted %d reports", len(got))
	}
}

func TestMultipleSubscribersInterleaved(t *testing.T) {
	fw, study := testFramework(t)
	// duplicate the stream under two subscriber IDs, interleaved
	var both []weblog.Entry
	for _, e := range study.Stream {
		e1 := e
		e1.Subscriber = "alice"
		e2 := e
		e2.Subscriber = "bob"
		both = append(both, e1, e2)
	}
	counts := map[string]int{}
	for _, r := range streamThrough(watchServer(t, fw), both) {
		counts[r.Subscriber]++
	}
	if counts["alice"] == 0 || counts["alice"] != counts["bob"] {
		t.Errorf("per-subscriber reports unbalanced: %v", counts)
	}
}

func TestStreamingAgreesWithDirectAnalysis(t *testing.T) {
	fw, study := testFramework(t)
	reports := streamThrough(watchServer(t, fw), study.Stream)

	// compare against analyzing each true session's entries directly
	direct := map[string]core.Report{}
	for _, s := range study.Corpus.Sessions {
		direct[s.Trace.SessionID] = fw.Analyze(features.FromEntries(s.Entries))
	}
	agree := 0
	for _, r := range reports {
		for _, d := range direct {
			if d.Chunks == r.Report.Chunks && d.Stall == r.Report.Stall {
				agree++
				break
			}
		}
	}
	if agree < len(reports)*8/10 {
		t.Errorf("only %d/%d streaming reports match a direct analysis", agree, len(reports))
	}
}
