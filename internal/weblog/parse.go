package weblog

import (
	"net/url"
	"sort"
	"strconv"
	"strings"

	"vqoe/internal/video"
)

// ChunkRecord is the per-chunk information extracted from a cleartext
// /videoplayback URI.
type ChunkRecord struct {
	Entry     Entry
	SessionID string
	VideoID   string
	Itag      int
	Audio     bool
	Quality   video.Quality // 0 for audio chunks
	Size      int
	Seq       int
}

// GroundTruth is the per-session truth reverse-engineered from URIs
// (Table 1, right column): chunk resolutions, stall count and duration,
// keyed by the session ID.
type GroundTruth struct {
	SessionID    string
	VideoID      string
	StallCount   int
	StallSeconds float64
	Abandoned    bool
	SessionSec   float64 // wall duration from the final report
	HasFinal     bool
	Chunks       []ChunkRecord
}

// ParseChunk extracts the chunk metadata of a cleartext video entry.
// ok is false for non-chunk or encrypted entries.
func ParseChunk(e Entry) (ChunkRecord, bool) {
	if e.Encrypted || !e.IsVideoHost() || !strings.HasPrefix(e.URI, "/videoplayback?") {
		return ChunkRecord{}, false
	}
	q, err := url.ParseQuery(e.URI[len("/videoplayback?"):])
	if err != nil {
		return ChunkRecord{}, false
	}
	itag, err := strconv.Atoi(q.Get("itag"))
	if err != nil {
		return ChunkRecord{}, false
	}
	rec := ChunkRecord{
		Entry:     e,
		SessionID: q.Get("cpn"),
		VideoID:   q.Get("id"),
		Itag:      itag,
	}
	rec.Size, _ = strconv.Atoi(q.Get("clen"))
	rec.Seq, _ = strconv.Atoi(q.Get("seq"))
	if strings.HasPrefix(q.Get("mime"), "audio/") {
		rec.Audio = true
	} else if rep, ok := video.RepresentationByItag(itag); ok {
		rec.Quality = rep.Quality
	}
	return rec, rec.SessionID != ""
}

// parseFinalReport extracts the end-of-session stall summary.
func parseFinalReport(e Entry) (sid string, gt GroundTruth, ok bool) {
	if e.Encrypted || e.Host != HostStats || !strings.HasPrefix(e.URI, "/api/stats/qoe?") {
		return "", GroundTruth{}, false
	}
	q, err := url.ParseQuery(e.URI[len("/api/stats/qoe?"):])
	if err != nil || q.Get("final") != "1" {
		return "", GroundTruth{}, false
	}
	sid = q.Get("cpn")
	gt.SessionID = sid
	gt.VideoID = q.Get("docid")
	gt.StallCount, _ = strconv.Atoi(q.Get("st"))
	ms, _ := strconv.Atoi(q.Get("sd"))
	gt.StallSeconds = float64(ms) / 1000
	gt.SessionSec, _ = strconv.ParseFloat(q.Get("vt"), 64)
	gt.Abandoned = q.Get("ab") == "1"
	gt.HasFinal = true
	return sid, gt, sid != ""
}

// ExtractGroundTruth groups cleartext entries by session ID and
// assembles the per-session ground truth: the data-preparation step of
// §3.3 (cached/compressed logs are dropped first).
func ExtractGroundTruth(entries []Entry) map[string]*GroundTruth {
	out := make(map[string]*GroundTruth)
	get := func(sid string) *GroundTruth {
		g := out[sid]
		if g == nil {
			g = &GroundTruth{SessionID: sid}
			out[sid] = g
		}
		return g
	}
	for _, e := range Prepare(entries) {
		if rec, ok := ParseChunk(e); ok {
			g := get(rec.SessionID)
			g.Chunks = append(g.Chunks, rec)
			if g.VideoID == "" {
				g.VideoID = rec.VideoID
			}
			continue
		}
		if sid, gt, ok := parseFinalReport(e); ok {
			g := get(sid)
			g.StallCount = gt.StallCount
			g.StallSeconds = gt.StallSeconds
			g.SessionSec = gt.SessionSec
			g.Abandoned = gt.Abandoned
			g.HasFinal = true
			if g.VideoID == "" {
				g.VideoID = gt.VideoID
			}
		}
	}
	for _, g := range out {
		sort.Slice(g.Chunks, func(i, j int) bool {
			return g.Chunks[i].Entry.Timestamp < g.Chunks[j].Entry.Timestamp
		})
	}
	return out
}

// Prepare removes entries served from the proxy cache or compressed by
// it — their sizes and timings do not reflect the origin transfer
// (§3.3).
func Prepare(entries []Entry) []Entry {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Cached || e.Compressed {
			continue
		}
		out = append(out, e)
	}
	return out
}

// RebufferingRatio computes RR from the extracted ground truth.
func (g *GroundTruth) RebufferingRatio() float64 {
	if g.SessionSec <= 0 {
		return 0
	}
	rr := g.StallSeconds / g.SessionSec
	if rr > 1 {
		rr = 1
	}
	return rr
}

// AverageQuality returns the mean resolution over video chunks.
func (g *GroundTruth) AverageQuality() float64 {
	var sum float64
	n := 0
	for _, c := range g.Chunks {
		if c.Audio || c.Quality == 0 {
			continue
		}
		sum += float64(c.Quality)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
