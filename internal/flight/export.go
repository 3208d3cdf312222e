package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"

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

// indexEntry renders one session's index row from its header: a copy,
// or the one in the store with the owning shard's ring lock held.
func indexEntry(h *header, shard int) IndexEntry {
	return IndexEntry{
		ID:         sessionID(h.subscriber, h.start),
		Subscriber: h.subscriber,
		Start:      h.start,
		End:        h.end,
		Shard:      shard,
		Chunks:     h.report.Chunks,
		MOS:        h.mos,
		Verbal:     h.verbal(),
		Stall:      h.stall(),
		Rep:        h.rep(),
		Cohort:     h.cohort,
		Reasons:    h.reasons.Names(),
		Entries:    h.rawEntries,
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
		for seq := s.hdrs.head; seq < s.hdrs.tail; seq++ {
			out.Retained = append(out.Retained, indexEntry(s.hdrs.at(seq), s.shard))
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

// WriteWorst renders the closing "worst sessions" report every live
// tool ends a run with: up to five retained sessions, worst MOS first,
// with the policies that kept them. No output when recording is off or
// nothing was retained.
func (s Snapshot) WriteWorst(w io.Writer) {
	if len(s.Retained) == 0 {
		return
	}
	fmt.Fprintf(w, "-- worst sessions (%d retained of %d recorded):\n",
		s.Counters.Retained, s.Counters.Recorded)
	for _, e := range s.Retained[:min(len(s.Retained), 5)] {
		fmt.Fprintf(w, "--   %-28s mos %.2f (%s)  stall %-13s entries %-4d kept: %s\n",
			e.ID, e.MOS, e.Verbal, e.Stall, e.Entries, strings.Join(e.Reasons, ","))
	}
}

// find returns a copy of the retained session with this exact
// subscriber and start, or nil. Header, floats and labels are copied
// under the owning ring lock (see replay); index row and timeline are
// then built from the copy with the lock released.
func (r *Recorder) find(subscriber string, start float64) *replay {
	if r == nil {
		return nil
	}
	for _, s := range r.shards {
		s.mu.Lock()
		var sess *replay
		if seq, h := s.lookup(subscriber, start); h != nil {
			sess = s.copyOut(seq, h)
		}
		s.mu.Unlock()
		if sess != nil {
			return sess
		}
	}
	return nil
}

// Get returns one retained session's full timeline, or nil when no
// session with that subscriber and start is retained (evicted, never
// sampled, or never seen — the caller can't tell, by design: the
// recorder only answers for what it kept). The timeline and the
// decision-path attributions are both replayed here, at drill-down
// time, from the raw material the session retained — the ingest path
// never pays for either.
func (r *Recorder) Get(subscriber string, start float64) *SessionJSON {
	sess := r.find(subscriber, start)
	if sess == nil {
		return nil
	}
	evs := sess.timeline()
	out := &SessionJSON{IndexEntry: indexEntry(&sess.header, sess.shard), Truncated: sess.truncated()}
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
	sess := r.find(subscriber, start)
	if sess == nil {
		return nil
	}
	evs := sess.timeline()
	const usec = 1e6
	out := make([]obs.ChromeEvent, 0, len(evs))
	for i := range evs {
		ev := &evs[i]
		ce := obs.ChromeEvent{
			Name: ev.Kind.String(),
			Cat:  "flight",
			TS:   ev.TS * usec,
			PID:  1,
			TID:  int32(sess.shard),
			Args: map[string]any{"subscriber": sess.subscriber},
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
		out.Resident += int64(s.hdrs.live())
		out.Bytes += s.bytes
		s.mu.Unlock()
		out.CapacityBytes += r.cfg.MaxBytes
	}
	return out
}
