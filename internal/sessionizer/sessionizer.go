// Package sessionizer reconstructs video sessions from encrypted
// traffic, where the session ID of the cleartext URIs is unavailable.
// It implements the three-step procedure of §5.2:
//
//  1. keep only the subscriber's traffic to service domains,
//  2. use the unique HTTP patterns at session boundaries — the
//     m.youtube.com page and i.ytimg.com thumbnail requests that
//     construct the watch page — to mark the start of a new session,
//  3. split on long idle gaps, which separate consecutive sessions.
//
// The paper reports that this identifies "the vast majority" of
// sessions but can be confused by the same subscriber playing videos
// in parallel; Evaluate quantifies exactly that.
package sessionizer

import (
	"sort"

	"vqoe/internal/features"
	"vqoe/internal/weblog"
)

// Config tunes the grouping heuristics.
type Config struct {
	// IdleGap is the silence (seconds) that separates two sessions
	// even without a page-load boundary.
	IdleGap float64
	// PageBoundary treats every watch-page load as a session start.
	PageBoundary bool
	// Fields is which chunk-observation fields a ColTracker stores for
	// its open flows. It is derived, not tuned: the engine sets it to
	// what its framework reads (core.Framework.ChunkFields). The zero
	// value keeps all eleven; Group ignores it.
	Fields features.FieldSet
}

// DefaultConfig returns the parameters used in the evaluation.
func DefaultConfig() Config {
	return Config{IdleGap: 30, PageBoundary: true}
}

// Session is one reconstructed session: indices into the input slice,
// ordered by time.
type Session struct {
	Indices    []int
	Start, End float64
}

// MediaIndices returns the subset of Indices whose entries are media
// chunk downloads.
func (s Session) MediaIndices(entries []weblog.Entry) []int {
	var out []int
	for _, i := range s.Indices {
		if entries[i].IsVideoHost() {
			out = append(out, i)
		}
	}
	return out
}

// boundary decides whether a service entry starts a new session given
// the time of the subscriber's previous service entry (§5.2 steps 2
// and 3). ColTracker.Push applies the same rule to pre-digested
// records; the equivalence tests hold the two together.
func boundary(cfg Config, open bool, lastT float64, e weblog.Entry) bool {
	return !open ||
		e.Timestamp-lastT > cfg.IdleGap ||
		(cfg.PageBoundary && e.Host == weblog.HostPage)
}

// Group reconstructs sessions from a single subscriber's weblog
// entries. Entries to non-service domains are discarded (step 1);
// the remaining ones are split at watch-page loads (step 2) and idle
// gaps (step 3).
func Group(entries []weblog.Entry, cfg Config) []Session {
	if cfg.IdleGap <= 0 {
		cfg.IdleGap = 30
	}
	// collect service-domain entries, time-ordered
	idx := make([]int, 0, len(entries))
	for i, e := range entries {
		if e.IsServiceHost() {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return entries[idx[a]].Timestamp < entries[idx[b]].Timestamp
	})

	var sessions []Session
	var cur *Session
	var lastT float64
	flush := func() {
		if cur != nil && len(cur.Indices) > 0 {
			sessions = append(sessions, *cur)
		}
		cur = nil
	}
	for _, i := range idx {
		e := entries[i]
		if boundary(cfg, cur != nil, lastT, e) {
			flush()
			cur = &Session{Start: e.Timestamp}
		}
		cur.Indices = append(cur.Indices, i)
		cur.End = e.Timestamp
		lastT = e.Timestamp
	}
	flush()
	return sessions
}

// OpenSession is a point-in-time view of one session still in the
// flow table — what an operator sees at /debug/sessions.
type OpenSession struct {
	Subscriber string  `json:"subscriber"`
	Start      float64 `json:"start"`
	LastSeen   float64 `json:"last_seen"`
	Entries    int     `json:"entries"`
	Chunks     int     `json:"chunks"`
}

// Evaluation summarizes how well reconstructed sessions match the
// truth.
type Evaluation struct {
	// TrueSessions is the number of distinct true sessions with at
	// least one media chunk.
	TrueSessions int
	// Reconstructed is the number of inferred sessions with media.
	Reconstructed int
	// Perfect counts true sessions whose media chunks all landed in
	// one inferred session containing no other session's media.
	Perfect int
	// ChunkPurity is the fraction of media chunks lying in an inferred
	// session dominated by their own true session.
	ChunkPurity float64
}

// PerfectRate is the fraction of true sessions perfectly reconstructed.
func (e Evaluation) PerfectRate() float64 {
	if e.TrueSessions == 0 {
		return 0
	}
	return float64(e.Perfect) / float64(e.TrueSessions)
}

// Evaluate compares inferred sessions against truth labels: label[i]
// names the true session of entries[i] ("" for signalling and other
// non-media entries, which are not scored).
func Evaluate(entries []weblog.Entry, sessions []Session, label []string) Evaluation {
	var ev Evaluation
	trueCounts := map[string]int{}
	for i, l := range label {
		if l != "" && entries[i].IsVideoHost() {
			trueCounts[l]++
		}
	}
	ev.TrueSessions = len(trueCounts)

	// per inferred session: count media chunks per true label
	type seen struct {
		total    int
		byLabel  map[string]int
		majority string
	}
	perSession := make([]seen, len(sessions))
	whereLabel := map[string]map[int]int{} // label -> session index -> chunks
	pureChunks := 0
	totalChunks := 0
	for si, s := range sessions {
		perSession[si].byLabel = map[string]int{}
		for _, i := range s.MediaIndices(entries) {
			l := label[i]
			if l == "" {
				continue
			}
			perSession[si].total++
			perSession[si].byLabel[l]++
			if whereLabel[l] == nil {
				whereLabel[l] = map[int]int{}
			}
			whereLabel[l][si]++
			totalChunks++
		}
		best, bestN := "", 0
		for l, n := range perSession[si].byLabel {
			if n > bestN {
				best, bestN = l, n
			}
		}
		perSession[si].majority = best
		if perSession[si].total > 0 {
			ev.Reconstructed++
		}
		pureChunks += bestN
	}
	if totalChunks > 0 {
		ev.ChunkPurity = float64(pureChunks) / float64(totalChunks)
	}

	for l, where := range whereLabel {
		if len(where) != 1 {
			continue // split across inferred sessions
		}
		var si int
		for k := range where {
			si = k
		}
		if perSession[si].total == where[si] && where[si] == trueCounts[l] {
			ev.Perfect++
		}
	}
	return ev
}
