package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// EventKind classifies one session-lifecycle span event.
type EventKind uint8

const (
	// EvOpen marks a new session entering the flow table.
	EvOpen EventKind = iota
	// EvChunk marks a media chunk appended to an open session.
	EvChunk
	// EvClose marks a session closed by a §5.2 boundary (watch-page
	// load or idle gap observed in-stream).
	EvClose
	// EvEvict marks a session closed by the idle-eviction clock.
	EvEvict
	// EvReport marks a closed session assessed by the framework and
	// its report emitted to a caller or sink.
	EvReport
)

var kindNames = [...]string{"open", "chunk", "close", "evict", "report"}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// SpanEvent is one session-lifecycle event, keyed by subscriber plus
// the session's start time (the monitor has no cleartext session ID —
// §5.2 — so subscriber+start is the session key throughout).
type SpanEvent struct {
	Kind       EventKind
	Shard      int32
	Chunks     int32
	TS         float64 // event time, capture-clock seconds
	Start, End float64 // session span (close/evict/report)
	Subscriber string
	Seq        uint64 // per-tracer monotonic sequence, set by Record
}

// Tracer is a fixed-capacity mutex-guarded ring buffer of span
// events. Each engine shard owns one and is its only recorder, so the
// mutex is effectively uncontended (the only other locker is an
// operator hitting /debug/trace); recording overwrites the oldest
// event once the ring wraps and never allocates. A nil *Tracer is the
// "tracing off" mode: every method is a no-op.
type Tracer struct {
	mu  sync.Mutex
	buf []SpanEvent
	seq uint64 // total events ever recorded
}

// DefaultTraceCap is the per-tracer ring capacity.
const DefaultTraceCap = 4096

// NewTracer returns a ring holding the last capacity events
// (DefaultTraceCap if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]SpanEvent, capacity)}
}

// Record appends one event, overwriting the oldest when full. The
// event's Seq is assigned under the lock so snapshot merge order is
// exact even when recorders race.
func (t *Tracer) Record(ev SpanEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.put(ev)
	t.mu.Unlock()
}

// RecordBatch appends evs in order under one acquisition of the lock —
// what a shard worker pays per message instead of one lock per event.
// The ring afterwards holds exactly what len(evs) Record calls would
// have left: same events, same consecutive Seqs.
func (t *Tracer) RecordBatch(evs []SpanEvent) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	for i := range evs {
		t.put(evs[i])
	}
	t.mu.Unlock()
}

// put stores ev at the next sequence number; the caller holds the lock.
func (t *Tracer) put(ev SpanEvent) {
	ev.Seq = t.seq
	t.buf[t.seq%uint64(len(t.buf))] = ev
	t.seq++
}

// Len reports how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(min(t.seq, uint64(len(t.buf))))
}

// Total reports how many events were ever recorded (Total - Len of
// them have been overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Snapshot copies the retained events, oldest first.
func (t *Tracer) Snapshot() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	if t.seq < n {
		out := make([]SpanEvent, t.seq)
		copy(out, t.buf)
		return out
	}
	out := make([]SpanEvent, n)
	head := t.seq % n // oldest slot
	copy(out, t.buf[head:])
	copy(out[n-head:], t.buf[:head])
	return out
}

// MergeEvents interleaves several tracers' snapshots into one
// event-time-ordered stream (ties broken by shard then sequence).
func MergeEvents(tracers []*Tracer) []SpanEvent {
	var out []SpanEvent
	for _, t := range tracers {
		out = append(out, t.Snapshot()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ChromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto, and speedscope all load it). It is
// exported so other event sources — the flight recorder's per-session
// timelines — can render into the same viewer as /debug/trace.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds, ph=X only
	PID   int            `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope, ph=i only
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeEvents wraps pre-built trace events in the trace_event
// envelope ({"traceEvents": [...]}) and writes them as JSON.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{}
	}
	tr := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
	return json.NewEncoder(w).Encode(tr)
}

// WriteChromeTrace renders span events as Chrome trace_event JSON.
// Session-closing kinds (close/evict/report) become complete
// "X" spans over the session's [Start, End] on the owning shard's
// track; open and chunk events become thread-scoped instants. The
// capture clock (seconds) maps to trace microseconds.
func WriteChromeTrace(w io.Writer, events []SpanEvent) error {
	const usec = 1e6
	out := make([]ChromeEvent, 0, len(events))
	for _, ev := range events {
		ce := ChromeEvent{
			Name: ev.Kind.String() + " " + ev.Subscriber,
			Cat:  "session",
			TS:   ev.TS * usec,
			PID:  1,
			TID:  ev.Shard,
			Args: map[string]any{
				"subscriber": ev.Subscriber,
				"kind":       ev.Kind.String(),
			},
		}
		switch ev.Kind {
		case EvClose, EvEvict, EvReport:
			ce.Phase = "X"
			ce.TS = ev.Start * usec
			ce.Dur = (ev.End - ev.Start) * usec
			if ce.Dur < 1 {
				ce.Dur = 1 // sub-µs spans still render
			}
			ce.Args["chunks"] = ev.Chunks
			ce.Args["start"] = ev.Start
			ce.Args["end"] = ev.End
		default:
			ce.Phase = "i"
			ce.Scope = "t"
		}
		out = append(out, ce)
	}
	return WriteChromeEvents(w, out)
}
