package weblog

import (
	"math"
	"strings"
	"testing"

	"vqoe/internal/netsim"
	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
)

func sampleTrace(t *testing.T, seed int64) *player.SessionTrace {
	t.Helper()
	r := stats.NewRand(seed)
	cat := video.NewCatalog(1, r)
	v := cat.Videos[0]
	v.Duration = 90
	net := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Cond: netsim.Conditions{BandwidthBps: 4e6, RTT: 0.08, LossProb: 0.002}},
	}}
	return player.Run(v, net, player.DefaultConfig(player.Adaptive), r.Fork())
}

func TestFromTraceCleartext(t *testing.T) {
	tr := sampleTrace(t, 1)
	entries := FromTrace(tr, Options{Subscriber: "sub1"})
	if len(entries) < len(tr.Chunks) {
		t.Fatalf("only %d entries for %d chunks", len(entries), len(tr.Chunks))
	}
	var chunks, pages, reports int
	for _, e := range entries {
		if e.Subscriber != "sub1" {
			t.Fatal("subscriber not stamped")
		}
		if e.Encrypted {
			t.Fatal("cleartext view must not be encrypted")
		}
		if e.ServerIP == "" || e.ServerPort != 80 {
			t.Fatalf("endpoint wrong: %s:%d", e.ServerIP, e.ServerPort)
		}
		switch {
		case e.IsVideoHost():
			chunks++
			if !strings.HasPrefix(e.URI, "/videoplayback?") {
				t.Fatalf("chunk URI %q", e.URI)
			}
		case e.Host == HostPage:
			pages++
		case e.Host == HostStats:
			reports++
		}
	}
	if chunks != len(tr.Chunks) {
		t.Errorf("chunk entries %d, want %d", chunks, len(tr.Chunks))
	}
	if pages != 1 || reports < 1 {
		t.Errorf("pages=%d reports=%d", pages, reports)
	}
}

func TestFromTraceEncryptedStripsURIs(t *testing.T) {
	tr := sampleTrace(t, 2)
	entries := FromTrace(tr, Options{Subscriber: "s", Encrypted: true})
	for _, e := range entries {
		if e.URI != "" {
			t.Fatalf("encrypted entry carries URI %q", e.URI)
		}
		if !e.Encrypted || e.ServerPort != 443 {
			t.Fatal("encrypted flags wrong")
		}
	}
	// transport features must survive encryption
	var withStats int
	for _, e := range entries {
		if e.IsVideoHost() && e.BDP > 0 && e.RTTAvg > 0 {
			withStats++
		}
	}
	if withStats == 0 {
		t.Error("no transport stats on encrypted chunk entries")
	}
}

func TestEntriesSortedAndOffset(t *testing.T) {
	tr := sampleTrace(t, 3)
	const off = 5000.0
	entries := FromTrace(tr, Options{TimeOffset: off})
	prev := -1.0
	for _, e := range entries {
		if e.Timestamp < off {
			t.Fatalf("timestamp %v below offset", e.Timestamp)
		}
		if e.Timestamp < prev {
			t.Fatal("entries not time-ordered")
		}
		prev = e.Timestamp
	}
}

func TestParseChunkRoundTrip(t *testing.T) {
	tr := sampleTrace(t, 4)
	entries := FromTrace(tr, Options{})
	var parsed int
	for _, e := range entries {
		rec, ok := ParseChunk(e)
		if !ok {
			continue
		}
		parsed++
		if rec.SessionID != tr.SessionID {
			t.Fatalf("session ID %q, want %q", rec.SessionID, tr.SessionID)
		}
		if rec.VideoID != tr.Video.ID {
			t.Fatalf("video ID mismatch")
		}
		if !rec.Audio && rec.Quality.Index() < 0 {
			t.Fatalf("unresolvable quality for itag %d", rec.Itag)
		}
		if rec.Size != rec.Entry.Bytes {
			t.Fatalf("clen %d != bytes %d", rec.Size, rec.Entry.Bytes)
		}
	}
	if parsed != len(tr.Chunks) {
		t.Errorf("parsed %d chunks, want %d", parsed, len(tr.Chunks))
	}
}

func TestParseChunkRejectsNonChunks(t *testing.T) {
	if _, ok := ParseChunk(Entry{Host: HostPage, URI: "/watch?v=x"}); ok {
		t.Error("page load parsed as chunk")
	}
	if _, ok := ParseChunk(Entry{Host: "r1---sn-abcd.googlevideo.com", Encrypted: true}); ok {
		t.Error("encrypted entry parsed as chunk")
	}
	if _, ok := ParseChunk(Entry{Host: "r1---sn-abcd.googlevideo.com", URI: "/videoplayback?itag=bogus"}); ok {
		t.Error("bad itag parsed")
	}
}

func TestExtractGroundTruth(t *testing.T) {
	tr := sampleTrace(t, 5)
	entries := FromTrace(tr, Options{})
	gts := ExtractGroundTruth(entries)
	g := gts[tr.SessionID]
	if g == nil {
		t.Fatal("session missing from ground truth")
	}
	if !g.HasFinal {
		t.Fatal("final report not parsed")
	}
	if g.StallCount != tr.StallCount() {
		t.Errorf("stall count %d, want %d", g.StallCount, tr.StallCount())
	}
	if math.Abs(g.StallSeconds-tr.TotalStallSeconds()) > 0.01 {
		t.Errorf("stall seconds %v, want %v", g.StallSeconds, tr.TotalStallSeconds())
	}
	if math.Abs(g.SessionSec-tr.Duration) > 0.01 {
		t.Errorf("session sec %v, want %v", g.SessionSec, tr.Duration)
	}
	if len(g.Chunks) != len(tr.Chunks) {
		t.Errorf("chunks %d, want %d", len(g.Chunks), len(tr.Chunks))
	}
	// chunk order must follow time
	for i := 1; i < len(g.Chunks); i++ {
		if g.Chunks[i].Entry.Timestamp < g.Chunks[i-1].Entry.Timestamp {
			t.Fatal("ground-truth chunks not sorted")
		}
	}
	if math.Abs(g.RebufferingRatio()-tr.RebufferingRatio()) > 0.01 {
		t.Errorf("RR %v, want %v", g.RebufferingRatio(), tr.RebufferingRatio())
	}
}

func TestExtractGroundTruthMultipleSessions(t *testing.T) {
	t1, t2 := sampleTrace(t, 6), sampleTrace(t, 7)
	entries := append(FromTrace(t1, Options{}), FromTrace(t2, Options{TimeOffset: 1000})...)
	gts := ExtractGroundTruth(entries)
	if len(gts) != 2 {
		t.Fatalf("found %d sessions, want 2", len(gts))
	}
	if gts[t1.SessionID] == nil || gts[t2.SessionID] == nil {
		t.Error("session IDs not both present")
	}
}

func TestPrepareDropsCachedCompressed(t *testing.T) {
	entries := []Entry{
		{Host: HostPage},
		{Host: HostPage, Cached: true},
		{Host: HostPage, Compressed: true},
	}
	out := Prepare(entries)
	if len(out) != 1 {
		t.Errorf("prepared %d entries, want 1", len(out))
	}
}

func TestGroundTruthQualityMetrics(t *testing.T) {
	g := &GroundTruth{Chunks: []ChunkRecord{
		{Quality: video.Q144},
		{Quality: video.Q480},
		{Audio: true},
		{Quality: video.Q480},
	}}
	want := (144.0 + 480 + 480) / 3
	if got := g.AverageQuality(); math.Abs(got-want) > 1e-9 {
		t.Errorf("avg quality %v, want %v", got, want)
	}
	empty := &GroundTruth{}
	if empty.AverageQuality() != 0 {
		t.Error("empty ground truth metrics should be 0")
	}
}

func TestVideoHostDetection(t *testing.T) {
	e := Entry{Host: "r3---sn-1234.googlevideo.com"}
	if !e.IsVideoHost() || !e.IsServiceHost() {
		t.Error("video host not detected")
	}
	if (Entry{Host: "example.com"}).IsServiceHost() {
		t.Error("foreign host classified as service")
	}
	if !(Entry{Host: HostImage}).IsServiceHost() {
		t.Error("thumbnail host is part of the service")
	}
}

// TestClassifyHostPartition: ClassifyHost sorts every name into its
// class, the Is*Host predicates agree with it, and the bytes form —
// what the wire decoder calls on a name still in its frame buffer —
// agrees on every name, long ones included, without building a string.
func TestClassifyHostPartition(t *testing.T) {
	want := map[string]HostClass{
		"": HostOther, HostPage: HostWatchPage, HostImage: HostSignal, HostStats: HostSignal,
		"example.com": HostOther, videoHostSuffix: HostOther,
		"r3---sn-1234.googlevideo.com": HostMedia, "x" + videoHostSuffix: HostMedia,
		"googlevideo.com": HostOther, strings.Repeat("edge-", 40) + videoHostSuffix: HostMedia,
		strings.Repeat("y", 300): HostOther,
	}
	var hosts []string
	for h := range want {
		hosts = append(hosts, h)
	}
	for _, h := range hosts {
		e := Entry{Host: h}
		c := ClassifyHost(h)
		if c != want[h] {
			t.Errorf("ClassifyHost(%q) = %d, want %d", h, c, want[h])
		}
		if (c != HostOther) != e.IsServiceHost() || (c == HostMedia) != e.IsVideoHost() {
			t.Errorf("ClassifyHost(%q) = %d disagrees with the predicates", h, c)
		}
		if b := ClassifyHostBytes([]byte(h)); b != c {
			t.Errorf("ClassifyHostBytes(%q) = %d, ClassifyHost %d", h, b, c)
		}
	}
	raw := make([][]byte, len(hosts))
	for i, h := range hosts {
		raw[i] = []byte(h)
	}
	var sum HostClass
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range raw {
			sum += ClassifyHostBytes(b)
		}
	}); n != 0 {
		t.Errorf("ClassifyHostBytes allocates %v times over %d names, want 0", n, len(raw))
	}
}

func TestStableHostsAndIPs(t *testing.T) {
	if videoHost("abc") != videoHost("abc") {
		t.Error("video host not stable")
	}
	if serverIP(HostPage) != serverIP(HostPage) {
		t.Error("server IP not stable")
	}
	if videoHost("abc") == videoHost("xyz") {
		t.Log("warning: host collision between distinct videos (allowed)")
	}
}
