package flight

import (
	"sort"

	"vqoe/internal/obs"
)

// IndexEntry is one retained session's row in the /debug/flight index.
type IndexEntry struct {
	ID         string   `json:"id"` // "subscriber/start", the drill-down path
	Subscriber string   `json:"subscriber"`
	Start      float64  `json:"start"`
	End        float64  `json:"end"`
	Shard      int      `json:"shard"`
	Chunks     int      `json:"chunks"`
	MOS        float64  `json:"mos"`
	Verbal     string   `json:"verbal"`
	Stall      string   `json:"stall"`
	Rep        string   `json:"representation"`
	Cohort     string   `json:"cohort,omitempty"`
	Reasons    []string `json:"reasons"`
	// Entries is how many raw weblog entries the recorder holds for
	// this session — the material a drill-down materializes its
	// timeline from.
	Entries int `json:"entries"`
}

// MetricsSnapshot is the recorder's counter view, consumed by the
// Prometheus exposition and embedded in the /debug/flight index.
type MetricsSnapshot struct {
	Recorded        int64            `json:"recorded_sessions"`
	Retained        int64            `json:"retained_sessions"`
	Resident        int64            `json:"resident_sessions"`
	Evicted         int64            `json:"evicted_sessions"`
	TruncatedEvents int64            `json:"truncated_events"`
	Bytes           int64            `json:"retained_bytes"`
	CapacityBytes   int64            `json:"capacity_bytes"`
	ByReason        map[string]int64 `json:"retained_by_reason"`
}

// Snapshot is the /debug/flight payload: the retained index, worst
// sessions first, plus the recorder counters.
type Snapshot struct {
	Retained []IndexEntry    `json:"retained"`
	Counters MetricsSnapshot `json:"counters"`
}

// SessionJSON is one retained session's full drill-down payload.
type SessionJSON struct {
	IndexEntry
	Events    int         `json:"events"`
	Truncated int64       `json:"truncated_events,omitempty"`
	Timeline  []EventJSON `json:"timeline"`
}

// indexEntry renders one session's index row. Callers must hold the
// owning shard's ring lock: reasons (and the label list behind the
// entry count) may be grown by ObserveOutcome.
func indexEntry(s *Session) IndexEntry {
	return IndexEntry{
		ID:         sessionID(s.Subscriber, s.Start),
		Subscriber: s.Subscriber,
		Start:      s.Start,
		End:        s.End,
		Shard:      s.Shard,
		Chunks:     s.Chunks,
		MOS:        s.MOS,
		Verbal:     s.Verbal,
		Stall:      s.Stall,
		Rep:        s.Rep,
		Cohort:     s.Cohort,
		Reasons:    s.reasons.Names(),
		Entries:    s.rawEntries,
	}
}

// Snapshot lists every retained session, worst first (lowest MOS, then
// subscriber, then start — a total, deterministic order so repeated
// renders of an idle recorder are byte-identical).
func (r *Recorder) Snapshot() Snapshot {
	out := Snapshot{Retained: []IndexEntry{}}
	if r == nil {
		out.Counters.ByReason = map[string]int64{}
		return out
	}
	out.Counters = r.Metrics()
	for _, s := range r.shards {
		s.mu.Lock()
		for _, sess := range s.ring {
			out.Retained = append(out.Retained, indexEntry(sess))
		}
		s.mu.Unlock()
	}
	sort.Slice(out.Retained, func(i, j int) bool {
		a, b := &out.Retained[i], &out.Retained[j]
		if a.MOS != b.MOS {
			return a.MOS < b.MOS
		}
		if a.Subscriber != b.Subscriber {
			return a.Subscriber < b.Subscriber
		}
		return a.Start < b.Start
	})
	return out
}

// find returns the retained session with this exact subscriber and
// start, materializing its timeline. The index row and a copy of the
// mutable label list are taken under the owning ring lock; the
// timeline itself is built outside it, from raw material that is
// immutable after retention.
func (r *Recorder) find(subscriber string, start float64) (*Session, IndexEntry, []Event) {
	if r == nil {
		return nil, IndexEntry{}, nil
	}
	for _, s := range r.shards {
		s.mu.Lock()
		for _, sess := range s.ring {
			if sess.Subscriber != subscriber || sess.Start != start {
				continue
			}
			idx := indexEntry(sess)
			var labels []Event
			if len(sess.labels) > 0 {
				labels = make([]Event, len(sess.labels))
				copy(labels, sess.labels)
			}
			s.mu.Unlock()
			return sess, idx, sess.timeline(labels)
		}
		s.mu.Unlock()
	}
	return nil, IndexEntry{}, nil
}

// Get returns one retained session's full timeline, or nil when no
// session with that subscriber and start is retained (evicted, never
// sampled, or never seen — the caller can't tell, by design: the
// recorder only answers for what it kept). The timeline and the
// decision-path attributions are both replayed here, at drill-down
// time, from the raw material the session retained — the ingest path
// never pays for either.
func (r *Recorder) Get(subscriber string, start float64) *SessionJSON {
	sess, idx, evs := r.find(subscriber, start)
	if sess == nil {
		return nil
	}
	out := &SessionJSON{IndexEntry: idx, Truncated: sess.truncated}
	out.Events = len(evs)
	out.Timeline = make([]EventJSON, len(evs))
	stallAttr, repAttr := r.attribute(sess, attrTopK)
	for i := range evs {
		out.Timeline[i] = evs[i].render()
		switch evs[i].Kind {
		case EvStall:
			out.Timeline[i].Attributions = stallAttr
		case EvRep:
			out.Timeline[i].Attributions = repAttr
		}
	}
	return out
}

// ChromeTrace renders one retained session's timeline as trace_event
// entries compatible with /debug/trace: chunks and gaps become "X"
// complete spans over their duration, point events become instants on
// the owning shard's track. Returns nil when the session is not
// retained.
func (r *Recorder) ChromeTrace(subscriber string, start float64) []obs.ChromeEvent {
	sess, _, evs := r.find(subscriber, start)
	if sess == nil {
		return nil
	}
	const usec = 1e6
	out := make([]obs.ChromeEvent, 0, len(evs))
	for i := range evs {
		ev := &evs[i]
		ce := obs.ChromeEvent{
			Name: ev.Kind.String(),
			Cat:  "flight",
			TS:   ev.TS * usec,
			PID:  1,
			TID:  int32(sess.Shard),
			Args: map[string]any{"subscriber": sess.Subscriber},
		}
		switch ev.Kind {
		case EvChunk:
			ce.Phase = "X"
			ce.TS = (ev.TS - ev.V2) * usec
			ce.Dur = ev.V2 * usec
			ce.Args["size_kb"] = ev.V1
			ce.Args["throughput_kbps"] = ev.V3
		case EvGap:
			ce.Phase = "X"
			ce.Cat = "flight.gap"
			ce.TS = (ev.TS - ev.V1) * usec
			ce.Dur = ev.V1 * usec
			ce.Args["gap_sec"] = ev.V1
		default:
			ce.Phase = "i"
			ce.Scope = "t"
			if ev.Note != "" {
				ce.Args["note"] = ev.Note
			}
			if ev.Kind == EvStall || ev.Kind == EvRep {
				ce.Args["confidence"] = ev.V1
			}
			if ev.Kind == EvMOS {
				ce.Args["mos"] = ev.V1
			}
		}
		if ce.Dur < 1 && ce.Phase == "X" {
			ce.Dur = 1
		}
		out = append(out, ce)
	}
	return out
}

// Metrics sums the per-shard counters. Safe to call on a nil recorder
// (all-zero snapshot with the capacity reported as 0).
func (r *Recorder) Metrics() MetricsSnapshot {
	out := MetricsSnapshot{ByReason: make(map[string]int64, NumReasons)}
	for i := 0; i < NumReasons; i++ {
		out.ByReason[reasonNames[i]] = 0
	}
	if r == nil {
		return out
	}
	for _, s := range r.shards {
		out.Recorded += s.recorded.Load()
		out.Retained += s.retained.Load()
		out.Evicted += s.evicted.Load()
		out.TruncatedEvents += s.truncated.Load()
		for i := 0; i < NumReasons; i++ {
			out.ByReason[reasonNames[i]] += s.byReason[i].Load()
		}
		s.mu.Lock()
		out.Resident += int64(len(s.ring))
		out.Bytes += s.bytes
		s.mu.Unlock()
		out.CapacityBytes += r.cfg.MaxBytes
	}
	return out
}
