package pipeline

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vqoe/internal/slo"
)

// scriptedEngine builds a manual SLO engine with two rules and walks
// one of them inactive → pending → firing so the exposition has
// non-trivial states and transition counts to pin down.
func scriptedEngine() *slo.Engine {
	now := 1000.0
	se := slo.New(slo.Config{
		Manual: true,
		Now:    func() float64 { return now },
	})
	breach := false
	se.AddRule(slo.Rule{
		Name: "zz-hot", Help: "scripted", ForSec: 1, ClearForSec: 1,
		Eval: func(_ *slo.History, _ float64) (float64, bool, string) {
			return 1, breach, "scripted"
		},
	})
	se.AddRule(slo.Rule{
		Name: "aa-quiet", Help: "scripted", ForSec: 1, ClearForSec: 1,
		Eval: func(_ *slo.History, _ float64) (float64, bool, string) {
			return 0, false, ""
		},
	})
	breach = true
	for i := 0; i < 4; i++ {
		now++
		se.Tick(now)
	}
	return se
}

// TestAlertExpositionDeterministic pins the vqoe_alert_* and process
// families: parseable with HELP/TYPE, rule label values sorted, all
// four destination states pre-declared per rule, and a second render
// of the same state byte-identical (the injected process clock removes
// the only legitimately moving value).
func TestAlertExpositionDeterministic(t *testing.T) {
	m := NewMetrics()
	m.SetRuntimeMetrics(false)
	start := time.Unix(1700000000, 0)
	m.SetProcessClock(start, func() time.Time { return start.Add(12500 * time.Millisecond) })
	se := scriptedEngine()
	alertTelemetry(m, se)

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := parsePromText(buf.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	validatePromFamilies(t, fams)

	// pinned process gauges: the injected clock renders exact values
	for _, line := range []string{
		"vqoe_process_start_time_seconds 1700000000.000",
		"vqoe_process_uptime_seconds 12.500",
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("exposition missing exact line %q", line)
		}
	}

	state := fams["vqoe_alert_state"]
	if state == nil || state.typ != "gauge" {
		t.Fatalf("vqoe_alert_state missing or not a gauge: %+v", state)
	}
	var rules []string
	byRule := map[string]float64{}
	for _, s := range state.samples {
		rules = append(rules, s.labels["rule"])
		byRule[s.labels["rule"]] = s.value
	}
	if len(rules) != 2 || rules[0] != "aa-quiet" || rules[1] != "zz-hot" {
		t.Errorf("rule label values not sorted: %v", rules)
	}
	if byRule["aa-quiet"] != float64(slo.Inactive) {
		t.Errorf("aa-quiet state %v, want inactive (%d)", byRule["aa-quiet"], slo.Inactive)
	}
	if byRule["zz-hot"] != float64(slo.Firing) {
		t.Errorf("zz-hot state %v, want firing (%d)", byRule["zz-hot"], slo.Firing)
	}

	// every rule pre-declares all four destination states, zeros included
	trans := fams["vqoe_alert_transitions_total"]
	if trans == nil || trans.typ != "counter" {
		t.Fatalf("vqoe_alert_transitions_total missing or not a counter: %+v", trans)
	}
	perRule := map[string]map[string]float64{}
	for _, s := range trans.samples {
		r := s.labels["rule"]
		if perRule[r] == nil {
			perRule[r] = map[string]float64{}
		}
		perRule[r][s.labels["to"]] = s.value
	}
	for _, r := range []string{"aa-quiet", "zz-hot"} {
		for _, to := range []string{"firing", "inactive", "pending", "resolved"} {
			if _, ok := perRule[r][to]; !ok {
				t.Errorf("rule %s missing pre-declared transition series to=%q", r, to)
			}
		}
	}
	if perRule["zz-hot"]["pending"] != 1 || perRule["zz-hot"]["firing"] != 1 {
		t.Errorf("zz-hot transition counts %v, want pending=1 firing=1", perRule["zz-hot"])
	}
	if perRule["aa-quiet"]["pending"] != 0 {
		t.Errorf("aa-quiet counted %v pending transitions, never breached", perRule["aa-quiet"]["pending"])
	}

	// byte-identical re-render of unchanged state
	var buf2 bytes.Buffer
	if _, err := m.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("exposition differs between renders of the same alert state")
	}
}

// TestDebugEndpointHeaders audits every JSON endpoint — the debug
// surface and the JSON error paths — for Content-Type and
// Cache-Control: no-store (live snapshots must never be cached by
// browsers or intermediaries).
func TestDebugEndpointHeaders(t *testing.T) {
	fw, _ := testFramework(t)
	srv := NewServer(fw)
	defer srv.SLO().Close()
	h := srv.Handler()

	cases := []struct {
		path string
		code int
	}{
		{"/debug/sessions", 200},
		{"/debug/sessions/nobody", 404},
		{"/debug/quality", 200},
		{"/debug/cohorts", 200},
		{"/debug/flight", 200},
		{"/debug/flight/nobody/123", 404},
		{"/debug/flight/nobody/not-a-number", 400},
		{"/debug/trace", 200},
		{"/debug/timeseries", 200},
		{"/debug/timeseries?n=-1", 400},
		{"/debug/alerts", 200},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.code {
			t.Errorf("GET %s status %d, want %d", tc.path, rec.Code, tc.code)
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type %q, want application/json", tc.path, ct)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control %q, want no-store", tc.path, cc)
		}
		if !strings.HasPrefix(strings.TrimSpace(rec.Body.String()), "{") &&
			!strings.HasPrefix(strings.TrimSpace(rec.Body.String()), "[") {
			t.Errorf("GET %s body is not JSON: %q", tc.path, rec.Body.String()[:min(len(rec.Body.String()), 60)])
		}
	}
}
