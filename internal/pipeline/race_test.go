package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vqoe/internal/engine"
	"vqoe/internal/slo"
)

// TestMetricsConcurrentExposition scrapes a four-shard server from
// several goroutines while others feed it; run with -race (make test /
// CI) to audit that the collectors read only atomics and snapshots, and
// that no count is lost to a scrape.
func TestMetricsConcurrentExposition(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 4, SweepEverySec: -1}, SLO: slo.Config{Manual: true}})
	var reports atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := asSubscriber(study.Stream, fmt.Sprintf("feeder-%d", g))
			for lo := 0; lo < len(stream); lo += 100 {
				switch g % 2 {
				case 0:
					reps, _ := srv.Engine().Ingest(stream[lo:min(lo+100, len(stream))])
					reports.Add(int64(len(reps)))
				default:
					_, _ = srv.Metrics().WriteTo(io.Discard)
				}
			}
		}(g)
	}
	wg.Wait()
	reports.Add(int64(len(srv.Drain())))
	if got := sampleOf(scrape(t, srv), "vqoe_sessions_total"); got != float64(reports.Load()) || got == 0 {
		t.Errorf("vqoe_sessions_total = %v, %d reports emitted", got, reports.Load())
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
