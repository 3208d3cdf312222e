package weblog

import (
	"testing"
	"testing/quick"

	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
)

// Parser robustness: the proxy parses URIs produced by arbitrary
// clients; malformed, truncated or adversarial query strings must
// never panic and never yield half-parsed ground truth.

func randomURI(r *stats.Rand) string {
	const chars = "abcdefghijklmnopqrstuvwxyz0123456789%&=?/+_."
	prefixes := []string{
		"/videoplayback?", "/videoplayback", "/api/stats/qoe?", "/watch?v=",
		"", "/", "?", "/videoplayback?itag=", "/api/stats/qoe?final=1&",
	}
	uri := prefixes[r.Intn(len(prefixes))]
	n := r.Intn(80)
	b := make([]byte, n)
	for i := range b {
		b[i] = chars[r.Intn(len(chars))]
	}
	return uri + string(b)
}

// FuzzParseChunk: whatever the host and URI, ParseChunk does not panic
// and accepts no chunk without a session ID. The seeded generator's
// URIs are the corpus; `go test` runs them, -fuzz mutates from them.
func FuzzParseChunk(f *testing.F) {
	r := stats.NewRand(1)
	hosts := []string{
		"r1---sn-abcd.googlevideo.com", HostPage, HostStats, "", "evil.example",
	}
	for i := 0; i < 200; i++ {
		f.Add(hosts[r.Intn(len(hosts))], randomURI(r), r.Bernoulli(0.2), r.Intn(1<<20))
	}
	f.Fuzz(func(t *testing.T, host, uri string, encrypted bool, size int) {
		rec, ok := ParseChunk(Entry{Host: host, URI: uri, Encrypted: encrypted, Bytes: size})
		if ok && rec.SessionID == "" {
			t.Fatalf("accepted chunk without session ID: %q", uri)
		}
	})
}

// FuzzFinalReport: the playback-statistics parser does not panic, and a
// report it accepts has a session ID and no negative stall time.
func FuzzFinalReport(f *testing.F) {
	r := stats.NewRand(2)
	for i := 0; i < 200; i++ {
		f.Add(randomURI(r))
	}
	f.Fuzz(func(t *testing.T, uri string) {
		sid, gt, ok := parseFinalReport(Entry{Host: HostStats, URI: uri})
		if ok {
			if sid == "" {
				t.Fatalf("accepted final report without session ID: %q", uri)
			}
			if gt.StallSeconds < 0 {
				t.Fatalf("negative stall seconds from %q", uri)
			}
		}
	})
}

func TestExtractGroundTruthOnGarbage(t *testing.T) {
	r := stats.NewRand(3)
	var entries []Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, Entry{
			Host:      "r1---sn-abcd.googlevideo.com",
			URI:       randomURI(r),
			Timestamp: r.Float64() * 1000,
			Cached:    r.Bernoulli(0.1),
		})
	}
	// must not panic; any session it does build must have an ID
	for sid := range ExtractGroundTruth(entries) {
		if sid == "" {
			t.Fatal("ground truth keyed by empty session ID")
		}
	}
}

// Property: ParseChunk is a strict inverse of chunkURI for valid
// itags — whatever the random session parameters.
func TestChunkURIRoundTripProperty(t *testing.T) {
	itags := []int{160, 133, 134, 135, 136, 137, 17, 36, 18, 22, 140}
	f := func(seed int64, size uint32, seq uint16, itagIdx uint8) bool {
		r := stats.NewRand(seed)
		tr := traceStub(r)
		c := chunkStub(int(size%10_000_000)+1, int(seq), itags[int(itagIdx)%len(itags)])
		e := Entry{
			Host: "r1---sn-abcd.googlevideo.com",
			URI:  chunkURI(tr, c),
		}
		rec, ok := ParseChunk(e)
		return ok &&
			rec.SessionID == tr.SessionID &&
			rec.Itag == c.Itag &&
			rec.Size == c.Size &&
			rec.Seq == c.Seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func traceStub(r *stats.Rand) *player.SessionTrace {
	cat := video.NewCatalog(1, r)
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
	id := make([]byte, 16)
	for i := range id {
		id[i] = alphabet[r.Intn(len(alphabet))]
	}
	return &player.SessionTrace{SessionID: string(id), Video: cat.Videos[0]}
}

func chunkStub(size, seq, itag int) player.Chunk {
	return player.Chunk{
		Seq:   seq,
		Itag:  itag,
		Size:  size,
		Audio: itag == video.AudioItag,
	}
}
