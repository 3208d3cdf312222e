package pipeline

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"vqoe/internal/engine"
	"vqoe/internal/weblog"
)

func entriesJSONL(t *testing.T, entries []weblog.Entry) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func TestServerAnalyze(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServer(fw)
	h := srv.Handler()

	body := entriesJSONL(t, study.Corpus.Sessions[0].Entries)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/analyze", body))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Chunks == 0 {
		t.Error("no chunks in assessment")
	}
	if resp.MOS < 1 || resp.MOS > 5 {
		t.Errorf("MOS %v out of scale", resp.MOS)
	}
	if resp.Stalling == "" || resp.Quality == "" || resp.MOSVerbal == "" {
		t.Errorf("labels missing: %+v", resp)
	}
}

func TestServerAnalyzeRejections(t *testing.T) {
	fw, _ := testFramework(t)
	h := NewServer(fw).Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/analyze", nil))
	if rec.Code != 405 {
		t.Errorf("GET /analyze → %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/analyze", strings.NewReader("{broken json")))
	if rec.Code != 400 {
		t.Errorf("malformed body → %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/analyze", strings.NewReader("")))
	if rec.Code != 422 {
		t.Errorf("empty body → %d, want 422", rec.Code)
	}
}

func TestServerIngestStream(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServer(fw)
	h := srv.Handler()

	// feed the whole study stream in two halves
	half := len(study.Stream) / 2
	total := 0
	for _, part := range [][]weblog.Entry{study.Stream[:half], study.Stream[half:]} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", entriesJSONL(t, part)))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != len(part) {
			t.Errorf("accepted %d of %d", resp.Accepted, len(part))
		}
		total += len(resp.Reports)
	}
	// 20 sessions minus the last (still open, no closing boundary)
	if total < 15 {
		t.Errorf("ingest produced %d reports for ~20 sessions", total)
	}

	// metrics must reflect the traffic
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "vqoe_entries_total") {
		t.Error("metrics exposition missing counters")
	}
}

// TestServerIngestShedMode pins the best-effort ingest variant:
// ?mode=shed delivers what fits and reports what it shed instead of
// blocking, an unknown mode is a JSON 400, and accepted+dropped
// always reconciles with the request.
func TestServerIngestShedMode(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServer(fw)
	defer srv.SLO().Close()
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest?mode=shed", entriesJSONL(t, study.Stream)))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted+resp.Dropped != len(study.Stream) {
		t.Errorf("accepted %d + dropped %d != %d offered",
			resp.Accepted, resp.Dropped, len(study.Stream))
	}
	if resp.Accepted == 0 {
		t.Error("idle engine shed the entire batch")
	}
	if len(resp.Reports) != 0 {
		t.Errorf("shed mode returned %d synchronous reports, want none", len(resp.Reports))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest?mode=banana", entriesJSONL(t, study.Stream[:1])))
	if rec.Code != 400 {
		t.Errorf("unknown mode → %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("unknown-mode error Content-Type %q, want application/json", ct)
	}
}

func TestServerHealthz(t *testing.T) {
	fw, _ := testFramework(t)
	h := NewServer(fw).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Error("healthz failed")
	}
}

// TestJSONLBodiesPinned pins what /ingest and /labels answer for the
// body shapes their one line reader decides: a body over the line cap
// (blank lines count toward it), a malformed line (numbered from 1,
// blank lines included), and blank lines around a valid one (skipped).
func TestJSONLBodiesPinned(t *testing.T) {
	fw, _ := testFramework(t)
	srv := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 1, SweepEverySec: -1}})
	defer srv.Drain()
	h := srv.Handler()
	entry, err := json.Marshal(weblog.Entry{
		Timestamp: 1, Subscriber: "sub-a", Host: "r1---sn-aaaa.googlevideo.com",
		Bytes: 400_000, TransactionSec: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	label := `{"subscriber":"sub-b","start":0,"end":10,"stall":0,"rep":0}`
	overCap := strings.Repeat("\n", maxBodyLines+1)
	malformed := "\n{}\n{broken\n"
	const syntaxErr = "line 3: invalid character 'b' looking for beginning of object key string\n"
	for _, tc := range []struct {
		name, path, body string
		code             int
		want             string
	}{
		{"ingest/over-cap", "/ingest", overCap, 400, "request exceeds 1000000 lines\n"},
		{"ingest/malformed", "/ingest", malformed, 400, syntaxErr},
		{"ingest/blank-lines", "/ingest", "\n\n" + string(entry) + "\n\n", 200, `{"accepted":1,"reports":[]}` + "\n"},
		{"labels/over-cap", "/labels", overCap, 400, "request exceeds 1000000 lines\n"},
		{"labels/malformed", "/labels", malformed, 400, syntaxErr},
		{"labels/blank-lines", "/labels", "\n\n" + label + "\n\n", 200, `{"accepted":1,"matched":0}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.code || rec.Body.String() != tc.want {
			t.Errorf("%s: %d %q, want %d %q", tc.name, rec.Code, rec.Body.String(), tc.code, tc.want)
		}
	}
}
