package pipeline

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

func labeledLive(t *testing.T) *workload.Live {
	t.Helper()
	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 24
	lcfg.SessionsPerSubscriber = 2
	lcfg.Seed = 7
	lcfg.LabelRate = 1
	return workload.GenerateLive(lcfg)
}

func labelsJSONL(t *testing.T, labels []workload.SessionLabel) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range labels {
		if err := enc.Encode(qualitymon.Label{
			Type:        qualitymon.LabelType,
			Subscriber:  l.Subscriber,
			Start:       l.Start,
			End:         l.End,
			AvailableAt: l.AvailableAt,
			Stall:       int(l.Stall),
			Rep:         int(l.Rep),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// TestDebugQualityEndpoint asserts GET /debug/quality serves the full
// health document: both models with baselines, populated drift and
// calibration fields, and label-matching counters once the delayed
// ground truth arrives over POST /labels.
func TestDebugQualityEndpoint(t *testing.T) {
	fw, _ := testFramework(t)
	srv := NewServer(fw)
	h := srv.Handler()
	live := labeledLive(t)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", entriesJSONL(t, live.Entries)))
	if rec.Code != 200 {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	srv.Drain() // close still-open sessions so every prediction is tracked

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/labels", labelsJSONL(t, live.Labels)))
	if rec.Code != 200 {
		t.Fatalf("labels status %d: %s", rec.Code, rec.Body.String())
	}
	var lresp LabelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lresp); err != nil {
		t.Fatal(err)
	}
	if lresp.Accepted != len(live.Labels) {
		t.Errorf("labels accepted %d of %d", lresp.Accepted, len(live.Labels))
	}
	if lresp.Matched == 0 {
		t.Error("no label matched after drain — predictions should all be tracked")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/quality", nil))
	if rec.Code != 200 {
		t.Fatalf("debug/quality status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var sn qualitymon.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &sn); err != nil {
		t.Fatalf("debug/quality is not the snapshot document: %v", err)
	}
	if len(sn.Models) != 2 {
		t.Fatalf("snapshot holds %d models, want stall+rep", len(sn.Models))
	}
	for _, ms := range sn.Models {
		if !ms.HasBaseline {
			t.Errorf("model %s served without a baseline", ms.Name)
		}
		if ms.Samples == 0 {
			t.Errorf("model %s saw no samples after live ingest", ms.Name)
		}
		if ms.Status == "" {
			t.Errorf("model %s has empty status", ms.Name)
		}
		if ms.MeanConfidence <= 0 || ms.MeanConfidence > 1 {
			t.Errorf("model %s mean confidence %v", ms.Name, ms.MeanConfidence)
		}
		if len(ms.Features) == 0 {
			t.Errorf("model %s reports no feature drift entries", ms.Name)
		}
		if ms.Labeled == 0 {
			t.Errorf("model %s matched no labels", ms.Name)
		}
	}
	if sn.Labels.Total != int64(len(live.Labels)) {
		t.Errorf("snapshot label total %d, sent %d", sn.Labels.Total, len(live.Labels))
	}
	if sn.Labels.Matched != int64(lresp.Matched) {
		t.Errorf("snapshot matched %d, labels response said %d", sn.Labels.Matched, lresp.Matched)
	}
	if rec := httptest.NewRecorder(); true {
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/quality", nil))
		if rec.Code != 405 {
			t.Errorf("POST /debug/quality → %d, want 405", rec.Code)
		}
	}
}

// TestIngestDemuxesLabels asserts /ingest accepts the mixed JSONL
// stream qoegen -label-rate emits: entry lines analyzed, label lines
// routed to the quality monitor, with counts reported in the response.
func TestIngestDemuxesLabels(t *testing.T) {
	fw, _ := testFramework(t)
	srv := NewServer(fw)
	h := srv.Handler()
	live := labeledLive(t)

	body := entriesJSONL(t, live.Entries)
	body.Write(labelsJSONL(t, live.Labels).Bytes())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", body))
	if rec.Code != 200 {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(live.Entries) {
		t.Errorf("accepted %d entries of %d — label lines miscounted as entries?", resp.Accepted, len(live.Entries))
	}
	if resp.LabelsAccepted != len(live.Labels) {
		t.Errorf("accepted %d labels of %d", resp.LabelsAccepted, len(live.Labels))
	}
	// labels are observed after the entry loop, so predictions emitted
	// within this request (closed sessions) already match
	if len(resp.Reports) > 0 && resp.LabelsMatched == 0 {
		t.Error("sessions closed in-request but no label matched")
	}
}

// TestAnalyzeReportsConfidence asserts the one-shot endpoint carries
// the new per-model confidence fields.
func TestAnalyzeReportsConfidence(t *testing.T) {
	fw, study := testFramework(t)
	h := NewServer(fw).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/analyze",
		entriesJSONL(t, study.Corpus.Sessions[0].Entries)))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.StallConfidence <= 0 || resp.StallConfidence > 1 {
		t.Errorf("stall confidence %v outside (0,1]", resp.StallConfidence)
	}
	if resp.QualityConfidence <= 0 || resp.QualityConfidence > 1 {
		t.Errorf("quality confidence %v outside (0,1]", resp.QualityConfidence)
	}
}

// TestLabelsEndpointRejections pins the error handling of the label
// side-channel.
func TestLabelsEndpointRejections(t *testing.T) {
	fw, _ := testFramework(t)
	h := NewServer(fw).Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/labels", nil))
	if rec.Code != 405 {
		t.Errorf("GET /labels → %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/labels", bytes.NewReader([]byte("{broken\n"))))
	if rec.Code != 400 {
		t.Errorf("malformed label line → %d, want 400", rec.Code)
	}
}

// TestPipelineObserveLabel covers the label path the way qoewatch
// drives it: entries through Server.Ingest one at a time, labels to the
// engine's monitor, summary matched count from the monitor snapshot
// after Drain.
func TestPipelineObserveLabel(t *testing.T) {
	fw, _ := testFramework(t)
	live := labeledLive(t)
	s := watchServer(t, fw)

	for _, e := range live.Entries {
		s.Ingest([]weblog.Entry{e})
	}
	for _, l := range live.Labels {
		s.Engine().ObserveLabel(qualitymon.Label{
			Subscriber: l.Subscriber, Start: l.Start, End: l.End,
			Stall: int(l.Stall), Rep: int(l.Rep),
		})
	}
	s.Drain()
	sn := s.Engine().Quality().Snapshot()
	if sn.Labels.Total != int64(len(live.Labels)) {
		t.Fatalf("monitor saw %d labels, sent %d", sn.Labels.Total, len(live.Labels))
	}
	if sn.Labels.Matched == 0 {
		t.Fatal("no label matched across Ingest/Drain")
	}
	if sn.Models[0].Samples == 0 {
		t.Fatal("one-shard engine fed no predictions to the monitor")
	}
}
