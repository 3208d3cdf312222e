package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vqoe/internal/engine"
	"vqoe/internal/slo"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// spoiled returns a copy of entries with every seventh one broken in one
// of the ways a record the service does not control can be, and how many
// it broke. JSON spells the last two; NaN and ±Inf only the wire codec
// and in-process callers can deliver.
func spoiled(entries []weblog.Entry) ([]weblog.Entry, int) {
	out := append([]weblog.Entry(nil), entries...)
	ways := []func(*weblog.Entry){
		func(e *weblog.Entry) { e.TransactionSec = math.NaN() },
		func(e *weblog.Entry) { e.Timestamp = math.Inf(1) },
		func(e *weblog.Entry) { e.RTTMin = math.Inf(-1) },
		func(e *weblog.Entry) { e.TransactionSec = -0.5 },
		func(e *weblog.Entry) { e.LossPct = -1 },
	}
	bad := 0
	for i := 3; i < len(out); i += 7 {
		ways[bad%len(ways)](&out[i])
		bad++
	}
	return out, bad
}

// postIngest sends the entries JSON can spell to /ingest and returns the
// rest, checking the response's tally sums to the lines sent.
func postIngest(t *testing.T, h http.Handler, path string, entries []weblog.Entry) (unspeakable []weblog.Entry) {
	t.Helper()
	var body bytes.Buffer
	lines := 0
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil { // json: unsupported value: NaN, ±Inf
			unspeakable = append(unspeakable, e)
			continue
		}
		body.Write(append(line, '\n'))
		lines++
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, &body))
	if rec.Code != 200 {
		t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Accepted + resp.Dropped + resp.Rejected; got != lines {
		t.Fatalf("POST %s: accepted %d + dropped %d + rejected %d != %d lines sent", path, resp.Accepted, resp.Dropped, resp.Rejected, lines)
	}
	return unspeakable
}

// familySum adds up every sample of one /metrics family.
func familySum(t *testing.T, fams map[string]*promFamily, name string) (sum float64) {
	t.Helper()
	f := fams[name]
	if f == nil {
		t.Fatalf("family %s missing from /metrics", name)
	}
	for _, s := range f.samples {
		sum += s.value
	}
	return sum
}

// TestIngestConservation holds every door to the one invariant of the
// ingest seam: an entry offered is taken by a shard, shed, or refused by
// the admission rule — exactly one of the three, counted in exactly one
// place — so after Drain sent == Σ events + Σ dropped + rejected, and
// vqoe_entries_total is the sum of the per-shard family.
func TestIngestConservation(t *testing.T) {
	fw, _ := testFramework(t)
	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 12
	lcfg.SessionsPerSubscriber = 2
	lcfg.Seed = 7
	stream, bad := spoiled(workload.GenerateLive(lcfg).Entries)
	chunks := func(n int, send func([]weblog.Entry)) {
		for lo := 0; lo < len(stream); lo += n {
			send(stream[lo:min(lo+n, len(stream))])
		}
	}

	for _, door := range []struct {
		name  string
		sheds bool
		send  func(t *testing.T, srv *Server)
	}{
		{"http-sync", false, func(t *testing.T, srv *Server) {
			h := srv.Handler()
			chunks(200, func(part []weblog.Entry) { srv.Engine().Ingest(postIngest(t, h, "/ingest", part)) })
		}},
		{"http-shed-full-mailbox", true, func(t *testing.T, srv *Server) {
			h := srv.Handler()
			chunks(50, func(part []weblog.Entry) { srv.Engine().Offer(postIngest(t, h, "/ingest?mode=shed", part)) })
		}},
		{"wire-listener", false, func(t *testing.T, srv *Server) {
			ws := srv.NewWireServer()
			defer ws.Close()
			ln, err := wire.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = ws.Serve(ln) }()
			c, err := wire.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.SendEntries(stream); err != nil {
				t.Fatal(err)
			}
			if ack, err := c.Sync(); err != nil || ack.Entries != int64(len(stream)) {
				t.Fatalf("ack %+v, %v: the listener acks what it decoded, rejects included", ack, err)
			}
		}},
		{"pcap-replay-feed", false, func(t *testing.T, srv *Server) {
			chunks(512, srv.Engine().Feed) // the async Entry door, at a replay batch cap
		}},
	} {
		t.Run(door.name, func(t *testing.T) {
			// the shed door runs against one shard whose worker stalls in
			// the report sink from its first report until the stream is
			// through, behind a one-message mailbox
			ecfg, release := engine.Config{Shards: 2}, make(chan struct{})
			if door.sheds {
				ecfg = engine.Config{Shards: 1, Mailbox: 1}
			} else {
				close(release)
			}
			srv := NewServerOpts(fw, Options{
				Engine:   ecfg,
				SLO:      slo.Config{Manual: true},
				OnReport: func(SessionReport) { <-release },
			})
			srv.Metrics().SetRuntimeMetrics(false)
			door.send(t, srv)
			if door.sheds {
				close(release)
			}
			srv.Drain()

			var events, dropped, rejected int64
			for _, sh := range srv.Engine().Snapshot() {
				events += sh.Events
				dropped += sh.Dropped
			}
			for _, n := range srv.Engine().Rejected() {
				rejected += n
			}
			if events+dropped+rejected != int64(len(stream)) {
				t.Errorf("sent %d, but %d taken + %d dropped + %d rejected", len(stream), events, dropped, rejected)
			}
			if rejected != int64(bad) {
				t.Errorf("%d rejected, %d entries were spoiled", rejected, bad)
			}
			if (dropped > 0) != door.sheds {
				t.Errorf("%d entries dropped through a door that sheds=%v", dropped, door.sheds)
			}
			fams, err := parsePromText(get(srv.Handler(), "/metrics").Body.String())
			if err != nil {
				t.Fatal(err)
			}
			if got := familySum(t, fams, "vqoe_entries_total"); got != float64(events) || got != familySum(t, fams, "vqoe_engine_shard_entries_total") {
				t.Errorf("vqoe_entries_total %v, the shards took %d", got, events)
			}
			if got := familySum(t, fams, "vqoe_ingest_rejected_total"); got != float64(bad) {
				t.Errorf("vqoe_ingest_rejected_total sums to %v, want %d", got, bad)
			}
		})
	}
}

// TestNaNDurationStaysOutOfMetrics is the regression for the second
// record the service does not control: before the admission rule, one
// media entry with a NaN TransactionSec flowed through featurization
// into the switch score, and one NaN observed into vqoe_switch_score_sum
// — a running sum, which never recovers — reads NaN for the life of the
// process.
func TestNaNDurationStaysOutOfMetrics(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 1, SweepEverySec: -1}, SLO: slo.Config{Manual: true}})
	stream := append([]weblog.Entry(nil), study.Stream...)
	poisoned := 0
	for i := range stream {
		if weblog.ClassifyHost(stream[i].Host) == weblog.HostMedia && i%40 == 20 {
			stream[i].TransactionSec = math.NaN()
			poisoned++
		}
	}
	if poisoned == 0 {
		t.Fatal("fixture has no media entry to poison")
	}
	_, took := srv.Engine().Ingest(stream)
	if took != (engine.Tally{Accepted: len(stream) - poisoned, Rejected: poisoned}) {
		t.Errorf("tally %+v, want %d of %d rejected", took, poisoned, len(stream))
	}
	srv.Drain()
	body := get(srv.Handler(), "/metrics").Body.String()
	if i := strings.Index(body, "NaN"); i >= 0 {
		line := body[strings.LastIndexByte(body[:i], '\n')+1:]
		t.Errorf("/metrics carries a NaN: %s", line[:strings.IndexByte(line, '\n')])
	}
	if !strings.Contains(body, "vqoe_ingest_rejected_total{reason=\"non_finite\"} "+strconv.Itoa(poisoned)+"\n") {
		t.Errorf("vqoe_ingest_rejected_total does not read %d non_finite", poisoned)
	}
}

// TestDrainedServerCountsNothing: after Drain the engine takes nothing,
// and with one definition of "taken" nothing says otherwise —
// vqoe_entries_total stands still and /ingest answers accepted 0 (it
// used to count, and answer, every line).
func TestDrainedServerCountsNothing(t *testing.T) {
	fw, study := testFramework(t)
	srv := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 2}, SLO: slo.Config{Manual: true}})
	h := srv.Handler()
	half := len(study.Stream) / 2
	srv.Engine().Ingest(study.Stream[:half])
	srv.Drain()

	if reports, took := srv.Engine().Ingest(study.Stream[half:]); reports != nil || took != (engine.Tally{}) {
		t.Errorf("drained server took %+v and reported %d sessions", took, len(reports))
	}
	for _, path := range []string{"/ingest", "/ingest?mode=shed"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, entriesJSONL(t, study.Stream[half:])))
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != 200 {
			t.Fatalf("POST %s: status %d, %v", path, rec.Code, err)
		}
		if resp.Accepted != 0 || resp.Dropped != 0 || resp.Rejected != 0 {
			t.Errorf("POST %s on a drained server answered %+v", path, resp)
		}
	}
	fams, err := parsePromText(get(h, "/metrics").Body.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := familySum(t, fams, "vqoe_entries_total"); got != float64(half) {
		t.Errorf("vqoe_entries_total %v after Drain, want the %d entries taken before it", got, half)
	}
}

// FuzzIngestJSONL drives the compatibility door with arbitrary bodies:
// decodeJSONL either refuses the body or yields entries the server
// ingests without panicking, and whatever it yields is conserved —
// every entry is taken or rejected, none twice, none lost.
func FuzzIngestJSONL(f *testing.F) {
	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers, lcfg.SessionsPerSubscriber, lcfg.Seed = 2, 1, 5
	var seed bytes.Buffer
	enc := json.NewEncoder(&seed)
	for _, e := range workload.GenerateLive(lcfg).Entries[:40] {
		_ = enc.Encode(e)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"Timestamp":1,"Subscriber":"s","Host":"r1---sn-a.googlevideo.com","Bytes":-5,"TransactionSec":-1}` + "\n"))
	f.Add([]byte(`{"Timestamp":1e308,"Subscriber":"","RTTMin":-0.0}` + "\n\n" + `{"type":"label","subscriber":"s"}`))
	f.Add([]byte(`{"Timestamp":NaN}` + "\n" + `{"BDP":1e999}` + "\n"))
	f.Add([]byte("not json\n{}\n"))

	srv := NewServerOpts(nil, Options{
		Engine: engine.Config{Shards: 2, MinChunks: 1 << 30},
		SLO:    slo.Config{Manual: true},
	})
	f.Cleanup(func() { srv.Drain() })
	settled := func() (n int64) {
		for _, sh := range srv.Engine().Snapshot() {
			n += sh.Events
		}
		for _, r := range srv.Engine().Rejected() {
			n += r
		}
		return n
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		entries, _, err := decodeJSONL(httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
		if err != nil {
			return
		}
		before := settled()
		_, took := srv.Engine().Ingest(entries)
		if took.Accepted+took.Rejected != len(entries) || took.Dropped != 0 {
			t.Fatalf("%d entries tallied %+v", len(entries), took)
		}
		if got := settled() - before; got != int64(len(entries)) {
			t.Fatalf("%d entries in, the engine's counters moved by %d", len(entries), got)
		}
	})
}
