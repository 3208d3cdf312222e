package pipeline

// A minimal Prometheus text-exposition parser used to validate that
// everything Metrics.WriteTo emits is well-formed: every sample
// belongs to a family declared with # HELP / # TYPE, the type is
// legal, family samples are contiguous, histogram buckets carry le
// and are cumulative, and every value parses as a float.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/slo"
	"vqoe/internal/workload"
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	name, typ string
	help      bool
	samples   []promSample
}

var promLegalTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// familyOf resolves a sample name to its declared family, honouring
// the histogram/summary suffix conventions.
func familyOf(fams map[string]*promFamily, sample string) *promFamily {
	if f, ok := fams[sample]; ok {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(sample, suf)
		if !found {
			continue
		}
		f, ok := fams[base]
		if !ok {
			continue
		}
		if f.typ == "histogram" || (f.typ == "summary" && suf != "_bucket") {
			return f
		}
	}
	return nil
}

// parsePromLabels parses `k="v",k2="v2"` (the text inside braces),
// handling the \\, \", and \n escapes the format defines.
func parsePromLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=': %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if key == "" {
			return nil, fmt.Errorf("empty label name in %q", s)
		}
		rest := s[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", key)
		}
		rest = rest[1:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, fmt.Errorf("label %s: dangling escape", key)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", key, rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("label %s: unterminated value", key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate label %s", key)
		}
		out[key] = val.String()
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

// parsePromText parses a full exposition, enforcing structural rules
// as it goes: TYPE before samples, no family re-declaration, family
// samples contiguous.
func parsePromText(text string) (map[string]*promFamily, error) {
	fams := map[string]*promFamily{}
	var current *promFamily
	seenDone := map[string]bool{} // families whose sample run has ended
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Text()
		if strings.TrimSpace(raw) == "" {
			continue
		}
		if strings.HasPrefix(raw, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(raw, "# HELP "), " ", 2)
			name := parts[0]
			f, ok := fams[name]
			if !ok {
				f = &promFamily{name: name}
				fams[name] = f
			}
			f.help = true
			continue
		}
		if strings.HasPrefix(raw, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(raw, "# TYPE "))
			if len(parts) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", line, raw)
			}
			name, typ := parts[0], parts[1]
			if !promLegalTypes[typ] {
				return nil, fmt.Errorf("line %d: illegal type %q for %s", line, typ, name)
			}
			f, ok := fams[name]
			if !ok {
				f = &promFamily{name: name}
				fams[name] = f
			}
			if f.typ != "" {
				return nil, fmt.Errorf("line %d: family %s re-declared", line, name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(raw, "#") {
			continue // comment
		}
		// sample line: name[{labels}] value
		s := promSample{labels: map[string]string{}}
		rest := raw
		if brace := strings.IndexByte(rest, '{'); brace >= 0 {
			s.name = rest[:brace]
			end := strings.LastIndexByte(rest, '}')
			if end < brace {
				return nil, fmt.Errorf("line %d: unbalanced braces: %q", line, raw)
			}
			labels, err := parsePromLabels(rest[brace+1 : end])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			s.labels = labels
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed sample: %q", line, raw)
			}
			s.name, rest = fields[0], fields[1]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: unparseable value in %q: %v", line, raw, err)
		}
		s.value = v
		fam := familyOf(fams, s.name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %s has no declared family", line, s.name)
		}
		if fam.typ == "" {
			return nil, fmt.Errorf("line %d: family %s has samples but no TYPE", line, fam.name)
		}
		if fam != current {
			if seenDone[fam.name] {
				return nil, fmt.Errorf("line %d: family %s samples not contiguous", line, fam.name)
			}
			if current != nil {
				seenDone[current.name] = true
			}
			current = fam
		}
		fam.samples = append(fam.samples, s)
	}
	return fams, sc.Err()
}

// validatePromFamilies applies the per-type semantic rules.
func validatePromFamilies(t *testing.T, fams map[string]*promFamily) {
	t.Helper()
	for _, f := range fams {
		if f.typ == "" {
			t.Errorf("family %s declared by HELP only, no TYPE", f.name)
			continue
		}
		if !f.help {
			t.Errorf("family %s has no HELP line", f.name)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s declared but has no samples", f.name)
		}
		switch f.typ {
		case "counter":
			for _, s := range f.samples {
				if s.value < 0 {
					t.Errorf("counter %s has negative sample %g", s.name, s.value)
				}
			}
		case "summary":
			for _, s := range f.samples {
				if s.name == f.name {
					if _, ok := s.labels["quantile"]; !ok {
						t.Errorf("summary %s sample lacks quantile label", f.name)
					}
				}
			}
		case "histogram":
			validatePromHistogram(t, f)
		}
	}
}

// validatePromHistogram checks bucket structure per label series:
// every _bucket has le, the cumulative counts are non-decreasing in
// le order, and the +Inf bucket equals the series _count.
func validatePromHistogram(t *testing.T, f *promFamily) {
	t.Helper()
	type series struct {
		le    []float64
		count []float64
		inf   float64
		total float64
	}
	bySeries := map[string]*series{}
	key := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" && k != "quantile" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%s;", k, labels[k])
		}
		return b.String()
	}
	get := func(labels map[string]string) *series {
		k := key(labels)
		s, ok := bySeries[k]
		if !ok {
			s = &series{inf: -1, total: -1}
			bySeries[k] = s
		}
		return s
	}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Errorf("histogram %s bucket lacks le label", f.name)
				continue
			}
			ser := get(s.labels)
			if le == "+Inf" {
				ser.inf = s.value
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("histogram %s: unparseable le=%q", f.name, le)
				continue
			}
			ser.le = append(ser.le, bound)
			ser.count = append(ser.count, s.value)
		case f.name + "_count":
			get(s.labels).total = s.value
		}
	}
	for k, ser := range bySeries {
		if ser.inf < 0 {
			t.Errorf("histogram %s series %s lacks a +Inf bucket", f.name, k)
			continue
		}
		if ser.total != ser.inf {
			t.Errorf("histogram %s series %s: +Inf bucket %g != _count %g", f.name, k, ser.inf, ser.total)
		}
		prevBound, prevCount := -1.0, -1.0
		for i, b := range ser.le {
			if b <= prevBound {
				t.Errorf("histogram %s series %s: le bounds not increasing at %g", f.name, k, b)
			}
			if ser.count[i] < prevCount {
				t.Errorf("histogram %s series %s: cumulative count drops at le=%g", f.name, k, b)
			}
			if ser.count[i] > ser.inf {
				t.Errorf("histogram %s series %s: bucket %g exceeds +Inf %g", f.name, k, ser.count[i], ser.inf)
			}
			prevBound, prevCount = b, ser.count[i]
		}
	}
}

// liveServer boots a server on a replayed multi-subscriber live
// stream: shards busy, histograms populated, lifecycle ring filled.
func liveServer(t *testing.T, drain bool) *Server {
	t.Helper()
	fw, _ := testFramework(t)
	ecfg := engine.DefaultConfig()
	ecfg.Shards = 4
	srv := NewServerOpts(fw, Options{Engine: ecfg})
	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 24
	lcfg.SessionsPerSubscriber = 2
	lcfg.Seed = 7
	live := workload.GenerateLive(lcfg)
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", entriesJSONL(t, live.Entries)))
	if rec.Code != 200 {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	if drain {
		srv.Drain()
	}
	return srv
}

func TestExpositionValid(t *testing.T) {
	srv := liveServer(t, true)
	var buf bytes.Buffer
	if _, err := srv.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := parsePromText(buf.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	validatePromFamilies(t, fams)

	// the QoE aggregates, engine gauges, stage histogram, and runtime
	// introspection must all be present and populated
	for _, want := range []string{
		"vqoe_entries_total", "vqoe_sessions_total", "vqoe_sessions_by_stall",
		"vqoe_sessions_by_quality", "vqoe_sessions_switch_varying",
		"vqoe_session_chunks", "vqoe_switch_score",
		"vqoe_engine_shard_open_sessions", "vqoe_engine_shard_entries_total",
		"vqoe_stage_duration_seconds", "vqoe_go_goroutines", "vqoe_go_gc_runs_total",
		// model-quality families: trained models carry baselines, so the
		// drift gauges must be present alongside the always-on ones
		"vqoe_model_predictions_total", "vqoe_model_mean_confidence",
		"vqoe_model_ece", "vqoe_model_labeled_total", "vqoe_model_online_accuracy",
		"vqoe_model_feature_psi", "vqoe_model_prior_psi", "vqoe_model_baseline_accuracy",
		"vqoe_model_degraded", "vqoe_quality_labels_total", "vqoe_quality_labels_matched_total",
		// fleet-rollup families: the live workload carries cohort
		// metadata, so the rollup must be populated
		"vqoe_cohort_sessions_total", "vqoe_cohort_mos",
		"vqoe_cohort_impaired_total", "vqoe_cohort_capacity", "vqoe_cohort_evicted_total",
		// binary identity and the flight recorder counters (the recorder
		// is on by default, so the families are always exposed)
		"vqoe_build_info",
		"vqoe_flight_recorded_sessions_total", "vqoe_flight_retained_sessions_total",
		"vqoe_flight_retained_by_reason_total", "vqoe_flight_resident_sessions",
		"vqoe_flight_retained_bytes", "vqoe_flight_capacity_bytes",
		"vqoe_flight_evicted_sessions_total", "vqoe_flight_truncated_events_total",
		// process identity and the SLO alert state machine (always on)
		"vqoe_process_start_time_seconds", "vqoe_process_uptime_seconds",
		"vqoe_alert_state", "vqoe_alert_transitions_total",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from exposition", want)
		}
	}

	// build info is a constant-1 gauge whose labels identify the binary
	if f := fams["vqoe_build_info"]; f != nil {
		if f.typ != "gauge" || len(f.samples) != 1 {
			t.Errorf("vqoe_build_info type %q samples %d, want gauge/1", f.typ, len(f.samples))
		} else {
			s := f.samples[0]
			if s.value != 1 {
				t.Errorf("vqoe_build_info = %v, want 1", s.value)
			}
			if s.labels["go_version"] == "" || s.labels["version"] == "" {
				t.Errorf("vqoe_build_info labels = %v", s.labels)
			}
		}
	}

	// every retention policy appears as a reason label, even at zero
	if f := fams["vqoe_flight_retained_by_reason_total"]; f != nil {
		if len(f.samples) != flight.NumReasons {
			t.Errorf("vqoe_flight_retained_by_reason_total has %d series, want %d", len(f.samples), flight.NumReasons)
		}
	}

	// the stage histogram must cover at least 4 pipeline stages with
	// per-shard labels and non-zero observations
	stages := map[string]bool{}
	shards := map[string]bool{}
	observed := 0.0
	if f := fams["vqoe_stage_duration_seconds"]; f != nil {
		if f.typ != "histogram" {
			t.Errorf("vqoe_stage_duration_seconds type %q, want histogram", f.typ)
		}
		for _, s := range f.samples {
			if s.name != "vqoe_stage_duration_seconds_count" {
				continue
			}
			if s.value > 0 {
				stages[s.labels["stage"]] = true
				observed += s.value
			}
			shards[s.labels["shard"]] = true
		}
	}
	if len(stages) < 4 {
		t.Errorf("only %d stages observed (%v), want >= 4", len(stages), stages)
	}
	if len(shards) < 2 {
		t.Errorf("stage histogram covers %d shards, want per-shard series", len(shards))
	}
	if observed == 0 {
		t.Error("stage histograms empty after live ingest")
	}
}

func TestExpositionParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"undeclared family": "vqoe_mystery 1\n",
		"illegal type":      "# HELP x y\n# TYPE x fancy\nx 1\n",
		"redeclared":        "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"bad value":         "# HELP x y\n# TYPE x gauge\nx one\n",
		"non-contiguous":    "# HELP x y\n# TYPE x counter\n# HELP z w\n# TYPE z counter\nx 1\nz 1\nx 2\n",
		"unterminated":      "# HELP x y\n# TYPE x counter\nx{a=\"b 1\n",
	}
	for name, text := range cases {
		if _, err := parsePromText(text); err == nil {
			t.Errorf("%s: parser accepted %q", name, text)
		}
	}
}

// chromeTrace mirrors the envelope chrome://tracing and Perfetto load.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestDebugTraceEndpoint(t *testing.T) {
	srv := liveServer(t, true)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var tr chromeTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace JSON does not load: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no trace events after live ingest")
	}
	kinds := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if k, ok := ev.Args["kind"].(string); ok {
			kinds[k] = true
		}
		switch ev.Ph {
		case "X":
			if ev.Dur <= 0 {
				t.Errorf("complete event %s has dur %g", ev.Name, ev.Dur)
			}
		case "i":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Args["subscriber"] == nil {
			t.Errorf("event %s lacks subscriber arg", ev.Name)
		}
	}
	for _, want := range []string{"open", "chunk", "close", "report"} {
		if !kinds[want] {
			t.Errorf("lifecycle kind %q missing from trace (have %v)", want, kinds)
		}
	}
}

func TestDebugSessionsEndpoint(t *testing.T) {
	srv := liveServer(t, false) // keep sessions open
	defer srv.Drain()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sessions", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var resp DebugSessionsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 4 {
		t.Fatalf("%d shards in snapshot, want 4", len(resp.Shards))
	}
	if resp.Open == 0 {
		t.Fatal("no open sessions reported mid-stream")
	}
	// the flow store's bytes read the same from the debug view, the
	// engine snapshot and /metrics (Ingest returned, so the shards are idle)
	stats := srv.Engine().Snapshot()
	var expo bytes.Buffer
	if _, err := srv.Metrics().WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, sh := range resp.Shards {
		chunks := 0
		for _, sess := range sh.Sessions {
			chunks += sess.Chunks
		}
		if (sh.StoreBytes > 0) != (chunks > 0) || chunks == 0 {
			t.Errorf("shard %d: %d store bytes for %d buffered chunks", i, sh.StoreBytes, chunks)
		}
		if sh.StoreBytes != stats[i].StoreBytes {
			t.Errorf("shard %d: store_bytes %d in /debug/sessions, %d in the snapshot", i, sh.StoreBytes, stats[i].StoreBytes)
		}
		if want := fmt.Sprintf("vqoe_engine_shard_flow_store_bytes{shard=\"%d\"} %d\n", i, sh.StoreBytes); !strings.Contains(expo.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
		total += len(sh.Sessions)
		for _, sess := range sh.Sessions {
			if sess.Subscriber == "" {
				t.Error("open session without subscriber")
			}
			if sess.LastSeen < sess.Start {
				t.Errorf("session %s: last_seen %g before start %g", sess.Subscriber, sess.LastSeen, sess.Start)
			}
			if sess.Entries <= 0 {
				t.Errorf("session %s: %d entries", sess.Subscriber, sess.Entries)
			}
		}
	}
	if total != resp.Open {
		t.Errorf("open=%d but shards sum to %d", resp.Open, total)
	}
}

func TestStageHistogramNilObserverOff(t *testing.T) {
	// the serial path with no stage set must not emit the histogram
	fw, _ := testFramework(t)
	srv := NewServer(fw)
	m := NewMetrics()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "vqoe_stage_duration_seconds") {
		t.Error("detached metrics still expose stage histograms")
	}
	// but the server's always-on observer does, even before traffic
	buf.Reset()
	if _, err := srv.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vqoe_stage_duration_seconds_bucket") {
		t.Error("server metrics lack stage histogram buckets")
	}
	srv.Drain()
}

func BenchmarkExpositionWrite(b *testing.B) {
	m := NewMetrics()
	set := obs.NewStageSet()
	for i := 0; i < 1000; i++ {
		set.Observe(obs.StageIngest, float64(i)*1e-6)
	}
	StageTelemetry(m, slo.New(slo.Config{Manual: true}), func() []obs.StageSetSnapshot {
		return []obs.StageSetSnapshot{set.Snapshot()}
	})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := m.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
