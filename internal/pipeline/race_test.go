package pipeline

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
)

// TestMetricsConcurrentExposition hammers the collector from many
// goroutines while the exposition renders; run with -race (make test /
// CI) to audit the mutex/atomic split, in particular that the P²
// estimators are never touched outside the lock.
func TestMetricsConcurrentExposition(t *testing.T) {
	m := NewMetrics()
	m.collect(func(e *expoWriter) {
		e.family("vqoe_engine_shard_open_sessions", "Sessions tracked per shard.", "gauge")
		e.printf("vqoe_engine_shard_open_sessions{shard=\"%d\"} %d\n", 0, 1)
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch g % 2 {
				case 0:
					m.ObserveReport(SessionReport{Report: core.Report{
						Stall:       features.StallLabel(i % 3),
						Chunks:      i,
						SwitchScore: float64(i),
					}})
				default:
					_, _ = m.WriteTo(io.Discard)
				}
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vqoe_sessions_total 2000\n") {
		t.Errorf("session counter lost updates:\n%s", buf.String())
	}
}

// TestServerConcurrentIngest drives /ingest from parallel clients with
// disjoint subscriber populations — the deployment shape the sharded
// engine exists for — and checks the responses and exposition stay
// coherent. Meaningful under -race.
func TestServerConcurrentIngest(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 4}})
	h := srv.Handler()

	const clients = 4
	var wg sync.WaitGroup
	reports := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// each client replays the study stream as its own subscriber
			sub := string(rune('a' + c))
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, e := range study.Stream {
				e.Subscriber = sub
				if err := enc.Encode(e); err != nil {
					t.Error(err)
					return
				}
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", &buf))
			if rec.Code != 200 {
				t.Errorf("client %d: status %d", c, rec.Code)
				return
			}
			var resp IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			if resp.Accepted != len(study.Stream) {
				t.Errorf("client %d: accepted %d of %d", c, resp.Accepted, len(study.Stream))
			}
			reports[c] = len(resp.Reports)
		}(c)
	}
	wg.Wait()

	for c, n := range reports {
		// 20 sessions per client, the last still open
		if n < 15 {
			t.Errorf("client %d got %d reports", c, n)
		}
	}
	if rest := srv.Drain(); len(rest) < clients {
		t.Errorf("drain flushed %d sessions, want ≥ %d still-open ones", len(rest), clients)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"vqoe_engine_shard_open_sessions{shard=\"0\"}",
		"vqoe_engine_shard_entries_total{shard=\"3\"}",
		"vqoe_entries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}
