package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/pipeline"
	"vqoe/internal/stats"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// capture synthesizes a study the way -export does, serializes it
// through pcapio, and returns the raw capture bytes and the study's
// "ip host" lines (what -export writes beside a capture).
func capture(t *testing.T, sessions int, seed int64) ([]byte, string) {
	t.Helper()
	cfg := workload.DefaultStudyConfig()
	cfg.Sessions = sessions
	cfg.Seed = seed
	study := workload.GenerateStudy(cfg)
	pkts := packet.Synthesize(study.Stream, stats.NewRand(seed))

	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(pkts); err != nil {
		t.Fatal(err)
	}
	var hosts strings.Builder
	seen := map[string]bool{}
	for _, e := range study.Stream {
		if !seen[e.ServerIP] {
			seen[e.ServerIP] = true
			fmt.Fprintf(&hosts, "%s %s\n", e.ServerIP, e.Host)
		}
	}
	return buf.Bytes(), hosts.String()
}

// reader opens raw capture bytes with server names restored.
func reader(t *testing.T, raw []byte, hosts string) *pcapio.Reader {
	t.Helper()
	r, err := pcapio.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(hosts), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			r.ResolveHost(f[0], f[1])
		}
	}
	return r
}

// readPackets drains a reader through Next.
func readPackets(t *testing.T, r *pcapio.Reader) []packet.Packet {
	t.Helper()
	var out []packet.Packet
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

var (
	fwOnce sync.Once
	fw     *core.Framework
)

// testFramework trains a small framework once for the engine tests.
func testFramework(t *testing.T) *core.Framework {
	t.Helper()
	fwOnce.Do(func() {
		clearCfg := workload.DefaultConfig(300)
		clearCfg.Seed = 2
		hasCfg := workload.DefaultConfig(150)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Seed = 3
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 15
		var err error
		if fw, _, err = core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), tcfg); err != nil {
			panic(err)
		}
	})
	return fw
}

// TestReplayMatchesBatchMetering proves the capture loop — incremental
// FlushIdle harvests on the capture clock — synthesizes the same
// entries in the same order as the one-shot MeterEntries over the full
// trace, on a capture file opened the way the tools open it, with and
// without its companion hosts file.
func TestReplayMatchesBatchMetering(t *testing.T) {
	raw, hosts := capture(t, 12, 11)
	path := filepath.Join(t.TempDir(), "c.pcap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, withHosts := range []bool{false, true} {
		if withHosts {
			if err := os.WriteFile(path+".hosts", []byte(hosts), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		open := func() *pcapio.Reader {
			r, err := pcapio.Open(path, "")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			if (r.Hosts() > 0) != withHosts {
				t.Fatalf("hosts file present=%v, reader restores %d names", withHosts, r.Hosts())
			}
			return r
		}

		// the reference runs on the packets as read back from the
		// capture, so both paths see identical timestamps (pcap
		// truncates to microseconds) and the same name resolution
		pkts := readPackets(t, open())
		want := packet.MeterEntries(pkts)
		named := 0
		for _, e := range want {
			if e.Host != "" {
				named++
			}
		}
		if (named > 0) != withHosts {
			t.Fatalf("hosts file present=%v, %d of %d entries carry a server name", withHosts, named, len(want))
		}

		var got []weblog.Entry
		h := func(es []weblog.Entry) error {
			got = append(got, es...) // copy semantics: append copies values
			return nil
		}
		// An idle gap beyond the capture span: transactions close only
		// via the meter's own boundaries (new request, FIN), so
		// streaming must reproduce batch metering bit for bit. Idle
		// eviction legitimately forgets per-flow RTT history and is
		// covered separately.
		st, err := streamCapture(open(), h, 1<<20, streamBatchMax)
		if err != nil {
			t.Fatal(err)
		}
		if st.Packets != len(pkts) {
			t.Errorf("replayed %d of %d packets", st.Packets, len(pkts))
		}
		if st.Entries != len(want) {
			t.Errorf("replay emitted %d entries, batch metering %d", st.Entries, len(want))
		}
		// Finish alone would cut the entries into this many batches
		if st.Batches <= (len(want)+streamBatchMax-1)/streamBatchMax {
			t.Errorf("replay used %d batches — streaming never happened", st.Batches)
		}
		if st.SpanSec <= 0 {
			t.Error("no capture span measured")
		}

		if len(got) != len(want) {
			t.Fatalf("hosts=%v entry streams diverge in length: %d vs %d", withHosts, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("hosts=%v entry %d diverges:\n got %+v\nwant %+v", withHosts, i, got[i], want[i])
			}
		}
	}
}

// TestReplayBatchCap checks the batch cap bounds every emit call.
func TestReplayBatchCap(t *testing.T) {
	raw, _ := capture(t, 12, 11)
	r, err := pcapio.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	h := func(es []weblog.Entry) error {
		maxSeen = max(maxSeen, len(es))
		return nil
	}
	if _, err := streamCapture(r, h, streamIdleGapSec, 8); err != nil {
		t.Fatal(err)
	}
	if maxSeen > 8 {
		t.Errorf("batch of %d exceeded the cap of 8", maxSeen)
	}
	if maxSeen == 0 {
		t.Error("no batches delivered")
	}
}

// TestReplayStopsAtSendError sends a capture to a wire client whose
// connection is closed at the far end: the loop must stop reading the
// capture at the first failed send and return that error, not meter
// the rest of the trace into a dead connection.
func TestReplayStopsAtSendError(t *testing.T) {
	raw, hosts := capture(t, 12, 11)
	total := len(readPackets(t, reader(t, raw, "")))
	near, far := net.Pipe()
	far.Close()
	c := wire.NewClient(near)
	defer c.Close()
	st, err := streamCapture(reader(t, raw, hosts), c.SendEntries, streamIdleGapSec, streamBatchMax)
	if err == nil {
		t.Fatal("replay into a closed connection reported no error")
	}
	if st.Packets >= total {
		t.Errorf("replay read all %d packets after its connection failed", total)
	}
}

// TestReplayFailsOnFirstSend replays a 40-session capture (about 2,300
// entries, more than one full frame) into a closed connection: every
// send reaches the connection before it returns, so the first one
// fails. A client that held entries until a frame filled failed only
// once one did (on send 729 of this replay).
func TestReplayFailsOnFirstSend(t *testing.T) {
	raw, hosts := capture(t, 40, 4)
	near, far := net.Pipe()
	far.Close()
	c := wire.NewClient(near)
	defer c.Close()
	sends := 0
	_, err := streamCapture(reader(t, raw, hosts), func(es []weblog.Entry) error {
		sends++
		return c.SendEntries(es)
	}, streamIdleGapSec, streamBatchMax)
	if err == nil {
		t.Fatalf("none of %d sends into a closed connection failed", sends)
	}
	if sends != 1 {
		t.Errorf("replay failed on send %d, want the first", sends)
	}
}

// TestStreamInStartOrder meters the smoke test's capture (15 sessions,
// seed 4) through the capture loop: entries arrive with non-decreasing
// timestamps, and a fresh one-shard engine fed the loop's batches
// closes the 15 sessions -analyze assesses, with default sweeps and
// with sweeps off. Entries sent in completion order instead split
// sessions (24 from this capture).
func TestStreamInStartOrder(t *testing.T) {
	raw, hosts := capture(t, 15, 4)
	var entries []weblog.Entry
	var batches [][]weblog.Entry
	_, err := streamCapture(reader(t, raw, hosts), func(es []weblog.Entry) error {
		entries = append(entries, es...)
		batches = append(batches, append([]weblog.Entry(nil), es...))
		return nil
	}, streamIdleGapSec, streamBatchMax)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Timestamp < entries[i-1].Timestamp {
			t.Fatalf("entry %d at t=%v arrives after one at t=%v", i, entries[i].Timestamp, entries[i-1].Timestamp)
		}
	}

	fw := testFramework(t)
	var want []string
	for _, sweep := range []float64{0, -1} {
		eng := engine.New(fw, engine.Config{Shards: 1, SweepEverySec: sweep}, nil)
		var got []string
		for _, b := range batches {
			reports, _ := eng.Ingest(b)
			for _, rep := range reports {
				got = append(got, fmt.Sprintf("t=%.1f %s", rep.Start, rep.Report))
			}
		}
		for _, rep := range eng.Drain() {
			got = append(got, fmt.Sprintf("t=%.1f %s", rep.Start, rep.Report))
		}
		if len(got) != 15 {
			t.Fatalf("sweep=%v: the engine closed %d sessions, want 15", sweep, len(got))
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("sweeps off reports\n%s\ndiffer from default sweeps\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestMeteringIsDeterministic meters one capture 20 times: transactions
// that start on the same microsecond must come out in one order, not in
// the flow table's iteration order (which gave 4 orders from this
// capture).
func TestMeteringIsDeterministic(t *testing.T) {
	raw, hosts := capture(t, 6, 4)
	pkts := readPackets(t, reader(t, raw, hosts))
	want := packet.MeterEntries(pkts)
	for run := 1; run < 20; run++ {
		if got := packet.MeterEntries(pkts); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d metered a different entry order", run)
		}
	}
}

// TestReplayedSessionsResolveInFlight replays a capture into a server's
// wire door with the flight recorder retaining every session: the
// retained sessions carry the capture's subscriber address, so their
// flight IDs resolve at /debug/flight/<id>.
func TestReplayedSessionsResolveInFlight(t *testing.T) {
	raw, hosts := capture(t, 4, 4)
	srv := pipeline.NewServerOpts(testFramework(t), pipeline.Options{
		Engine: engine.Config{Shards: 1},
		Flight: flight.Config{SampleN: 1},
	})
	ws := srv.NewWireServer()
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ws.Serve(ln) }()
	defer ws.Close()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := streamCapture(reader(t, raw, hosts), c.SendEntries, streamIdleGapSec, streamBatchMax)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := c.Sync(); err != nil || ack.Entries != int64(st.Entries) {
		t.Fatalf("server acked %+v of %d entries: %v", ack, st.Entries, err)
	}
	srv.Drain()

	retained := srv.Flight().Snapshot().Retained
	if len(retained) == 0 {
		t.Fatal("no session retained at SampleN 1")
	}
	id := retained[0].ID
	if !strings.HasPrefix(id, "10.0.0.2/") {
		t.Fatalf("flight id %q lacks the capture's subscriber", id)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight/"+id, nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/flight/%s: status %d: %s", id, rec.Code, rec.Body.String())
	}
}
