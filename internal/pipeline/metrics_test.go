package pipeline

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
)

func sampleReport(stall features.StallLabel, rep features.RepLabel, varying bool, chunks int) SessionReport {
	return SessionReport{
		Subscriber: "s",
		Report: core.Report{
			Stall:          stall,
			Representation: rep,
			SwitchVariance: varying,
			SwitchScore:    float64(chunks) * 10,
			Chunks:         chunks,
		},
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.ObserveReport(sampleReport(features.NoStall, features.SD, false, 40))
	m.ObserveReport(sampleReport(features.MildStall, features.LD, true, 20))
	m.ObserveReport(sampleReport(features.SevereStall, features.LD, true, 60))

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vqoe_sessions_total 3",
		`vqoe_sessions_by_stall{level="mild stalls"} 1`,
		`vqoe_sessions_by_stall{level="no stalls"} 1`,
		`vqoe_sessions_by_quality{level="LD"} 2`,
		"vqoe_sessions_switch_varying 2",
		`vqoe_session_chunks{quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	m := NewMetrics()
	m.ObserveReport(sampleReport(features.NoStall, features.HD, false, 30))

	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "vqoe_sessions_total 1") {
		t.Error("handler body missing counters")
	}

	rec = httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST should be rejected, got %d", rec.Code)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				m.ObserveReport(sampleReport(features.NoStall, features.SD, false, 25))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vqoe_sessions_total 2000") {
		t.Errorf("concurrent counts wrong:\n%s", buf.String())
	}
}
