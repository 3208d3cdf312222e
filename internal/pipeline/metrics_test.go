package pipeline

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// scrape renders the server's exposition and parses it.
func scrape(t *testing.T, srv *Server) map[string]*promFamily {
	t.Helper()
	var buf bytes.Buffer
	if _, err := srv.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := parsePromText(buf.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	return fams
}

// asSubscriber renames every entry of a stream, so parallel feeders
// drive disjoint subscribers.
func asSubscriber(entries []weblog.Entry, sub string) []weblog.Entry {
	out := append([]weblog.Entry(nil), entries...)
	for i := range out {
		out[i].Subscriber = sub
	}
	return out
}

// TestMetricsExposition: the session families a server renders count
// exactly the reports the engine handed back, by the verdicts those
// reports carry.
func TestMetricsExposition(t *testing.T) {
	fw, study := testFramework(t)
	srv := watchServer(t, fw)
	reports := streamThrough(srv, study.Stream)
	if len(reports) == 0 {
		t.Fatal("fixture produced no reports")
	}
	stalls, reps := map[string]int{}, map[string]int{}
	varying, chunks := 0, 0
	for _, r := range reports {
		stalls[r.Report.Stall.String()]++
		reps[r.Report.Representation.String()]++
		if r.Report.SwitchVariance {
			varying++
		}
		chunks += r.Report.Chunks
	}
	fams := scrape(t, srv)
	validatePromFamilies(t, fams)
	for name, want := range map[string]int{
		"vqoe_sessions_total":          len(reports),
		"vqoe_sessions_switch_varying": varying,
		"vqoe_session_chunks_count":    len(reports),
		"vqoe_session_chunks_sum":      chunks,
		"vqoe_switch_score_count":      len(reports),
	} {
		if got := sampleOf(fams, name); got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	for family, want := range map[string]map[string]int{"vqoe_sessions_by_stall": stalls, "vqoe_sessions_by_quality": reps} {
		if n := len(fams[family].samples); n != 3 {
			t.Errorf("%s has %d levels, want 3", family, n)
		}
		for level, n := range want {
			if got, _ := sampleValue(fams, family, map[string]string{"level": level}); got != float64(n) {
				t.Errorf("%s{level=%q} = %v, want %d", family, level, got, n)
			}
		}
	}
}

// sampleOf finds the one unlabelled sample with this exact name, in
// whichever family it belongs to (histogram _count/_sum included).
func sampleOf(fams map[string]*promFamily, name string) float64 {
	if f := familyOf(fams, name); f != nil {
		for _, s := range f.samples {
			if s.name == name && len(s.labels) == 0 {
				return s.value
			}
		}
	}
	return -1
}

func TestMetricsHandler(t *testing.T) {
	fw, study := testFramework(t)
	srv := watchServer(t, fw)
	n := len(streamThrough(srv, study.Stream))

	rec := httptest.NewRecorder()
	srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if want := fmt.Sprintf("vqoe_sessions_total %d\n", n); !strings.Contains(rec.Body.String(), want) {
		t.Errorf("handler body missing %q", want)
	}

	rec = httptest.NewRecorder()
	srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST should be rejected, got %d", rec.Code)
	}
}

// TestMetricsConcurrent: four feeders on a four-shard server, each its
// own subscriber; every session any of them closed is counted once.
func TestMetricsConcurrent(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 4, SweepEverySec: -1}, SLO: slo.Config{Manual: true}})
	var reports atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := asSubscriber(study.Stream, fmt.Sprintf("feeder-%d", g))
			for lo := 0; lo < len(stream); lo += 50 {
				reps, _ := srv.Engine().Ingest(stream[lo:min(lo+50, len(stream))])
				reports.Add(int64(len(reps)))
			}
		}(g)
	}
	wg.Wait()
	reports.Add(int64(len(srv.Drain())))
	if got := sampleOf(scrape(t, srv), "vqoe_sessions_total"); got != float64(reports.Load()) || got == 0 {
		t.Errorf("vqoe_sessions_total = %v, %d reports emitted", got, reports.Load())
	}
}

// TestSessionFamiliesHaveOneSource: every door a live session can come
// through — the in-process engine, the wire listener — counts into one
// counter per number, and the offline /analyze reference counts into
// none. Each vqoe_sessions_* family must read what the subsystem that
// counts it reports elsewhere: the per-shard engine counters, the SLO
// sampler's sessions.reports series, the model monitor's per-class
// predictions and /debug/quality.
func TestSessionFamiliesHaveOneSource(t *testing.T) {
	fw, study := testFramework(t)
	var sunk atomic.Int64
	srv := NewServerOpts(fw, Options{
		Engine:   engine.Config{Shards: 4, SweepEverySec: -1},
		SLO:      slo.Config{Manual: true},
		OnReport: func(SessionReport) { sunk.Add(1) },
	})
	ws := srv.NewWireServer()
	defer ws.Close()
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ws.Serve(ln) }()

	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 16
	lcfg.SessionsPerSubscriber = 2
	lcfg.Seed = 7
	live := workload.GenerateLive(lcfg)
	half := len(live.Entries) / 2
	returned, _ := srv.Engine().Ingest(live.Entries[:half])
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendEntries(live.Entries[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/analyze", entriesJSONL(t, study.Corpus.Sessions[0].Entries)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/analyze status %d: %s", rec.Code, rec.Body.String())
	}
	srv.Drain()
	srv.SLO().Tick(srv.SLO().Now())

	fams := scrape(t, srv)
	validatePromFamilies(t, fams)
	var ts slo.TimeseriesSnapshot
	getJSON(t, h, "/debug/timeseries", &ts)
	var q qualitymon.Snapshot
	getJSON(t, h, "/debug/quality", &q)

	total := sampleOf(fams, "vqoe_sessions_total")
	if emitted := float64(len(returned)) + float64(sunk.Load()); total != emitted || total == 0 {
		t.Fatalf("vqoe_sessions_total = %v, the engine emitted %v reports", total, emitted)
	}
	lastReports := -1.0
	for _, s := range ts.Series {
		if s.Name == "sessions.reports" && s.Last != nil {
			lastReports = *s.Last
		}
	}
	for name, got := range map[string]float64{
		"Σ vqoe_engine_shard_reports_total": familySum(t, fams, "vqoe_engine_shard_reports_total"),
		"sessions.reports":                  lastReports,
		"vqoe_switch_score_count":           sampleOf(fams, "vqoe_switch_score_count"),
		"vqoe_session_chunks_count":         sampleOf(fams, "vqoe_session_chunks_count"),
	} {
		if got != total {
			t.Errorf("%s = %v, vqoe_sessions_total = %v", name, got, total)
		}
	}
	for family, model := range map[string]string{"vqoe_sessions_by_stall": "stall", "vqoe_sessions_by_quality": "rep"} {
		f := fams[family]
		if f == nil {
			t.Fatalf("%s missing", family)
		}
		for _, s := range f.samples {
			want, ok := sampleValue(fams, "vqoe_model_predictions_total", map[string]string{"model": model, "class": s.labels["level"]})
			if !ok || s.value != want {
				t.Errorf("%s{level=%q} = %v, vqoe_model_predictions_total{model=%q} = %v", family, s.labels["level"], s.value, model, want)
			}
		}
	}
	varying := sampleOf(fams, "vqoe_sessions_switch_varying")
	if varying != float64(q.Switch.Varying) {
		t.Errorf("vqoe_sessions_switch_varying = %v, /debug/quality switch.varying = %d", varying, q.Switch.Varying)
	}

	// the cohort rollup counts the same sessions: its rows, overflow
	// included, sum to the total, and its impairment counts to the
	// monitor's per-class ones
	if got := familySum(t, fams, "vqoe_cohort_sessions_total"); got != total {
		t.Errorf("Σ vqoe_cohort_sessions_total = %v, vqoe_sessions_total = %v", got, total)
	}
	impaired := map[string]float64{}
	for _, s := range fams["vqoe_cohort_impaired_total"].samples {
		impaired[s.labels["impairment"]] += s.value
	}
	level := func(family, l string) float64 {
		v, ok := sampleValue(fams, family, map[string]string{"level": l})
		if !ok {
			t.Fatalf("%s{level=%q} missing", family, l)
		}
		return v
	}
	for impairment, want := range map[string]float64{
		"stall":       level("vqoe_sessions_by_stall", features.MildStall.String()) + level("vqoe_sessions_by_stall", features.SevereStall.String()),
		"low_quality": level("vqoe_sessions_by_quality", features.LD.String()),
		"switching":   varying,
	} {
		if got := impaired[impairment]; got != want || want == 0 {
			t.Errorf("Σ vqoe_cohort_impaired_total{impairment=%q} = %v, the session families count %v", impairment, got, want)
		}
	}
}
