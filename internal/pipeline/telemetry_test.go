package pipeline

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vqoe/internal/engine"
	"vqoe/internal/slo"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// TestSecondWireServerSharesTaps: a second NewWireServer call must not
// leave /metrics and the SLO sampler watching different listeners.
// Frames and a CRC fault go through the listener the second call
// returned; both taps must then report the same counts.
func TestSecondWireServerSharesTaps(t *testing.T) {
	fw, _ := testFramework(t)
	srv := NewServerOpts(fw, Options{
		Engine: engine.Config{Shards: 1, SweepEverySec: -1},
		SLO:    slo.Config{Manual: true},
	})
	defer srv.Drain()
	first := srv.NewWireServer()
	defer first.Close()
	ws := srv.NewWireServer()
	defer ws.Close()
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ws.Serve(ln) }()

	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 4
	lcfg.SessionsPerSubscriber = 1
	lcfg.Seed = 5
	live := workload.GenerateLive(lcfg)
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendEntries(live.Entries); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	// one frame with a flipped payload byte: the listener counts a CRC
	// fault and hangs up, which the read below waits for
	var frame bytes.Buffer
	if err := wire.EncodeBatch(&frame, live.Entries[:1], nil); err != nil {
		t.Fatal(err)
	}
	frame.Bytes()[wire.HeaderLen] ^= 0xff
	bad, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = bad.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(bad); err != nil {
		t.Fatalf("listener did not hang up on the corrupt frame: %v", err)
	}
	if snap := ws.Snapshot(); snap.Frames == 0 || snap.Errors != 1 {
		t.Fatalf("fixture: listener saw %d frames, %d errors; want >0 and 1", snap.Frames, snap.Errors)
	}

	srv.SLO().Tick(srv.SLO().Now())
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := parsePromText(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/timeseries", nil))
	var ts slo.TimeseriesSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &ts); err != nil {
		t.Fatal(err)
	}
	last := map[string]float64{}
	for _, s := range ts.Series {
		if s.Last != nil {
			last[s.Name] = *s.Last
		}
	}
	for family, series := range map[string]string{
		"vqoe_wire_frames_total": "wire.frames",
		"vqoe_wire_errors_total": "wire.errors",
	} {
		exported, ok := sampleValue(fams, family, nil)
		if !ok {
			t.Fatalf("%s missing from /metrics", family)
		}
		sampled, ok := last[series]
		if !ok {
			t.Fatalf("%s has no sample in /debug/timeseries", series)
		}
		if exported != sampled || exported == 0 {
			t.Errorf("%s = %v but %s = %v: the two taps watch different listeners", family, exported, series, sampled)
		}
	}
}

// TestScrapeDoesNotBlockReportSink: a collector stuck in its
// subsystem's snapshot must not hold Metrics.mu — every shard's report
// sink takes that mutex in ObserveReport.
func TestScrapeDoesNotBlockReportSink(t *testing.T) {
	m := NewMetrics()
	entered, release := make(chan struct{}), make(chan struct{})
	m.collect(func(*expoWriter) {
		close(entered)
		<-release
	})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		_, _ = m.WriteTo(io.Discard)
	}()
	<-entered
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		m.ObserveReport(SessionReport{})
	}()
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Error("ObserveReport blocked behind a scrape stuck in a collector")
	}
	close(release)
	<-scraped
	<-observed
}
