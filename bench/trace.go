package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed section of a traced round, recorded from the
// benchmark's side of each call into the program. Times are offsets
// from the round's clock base; Parent indexes the tracer's span list
// (-1 for a round's root) and Round is the identifier every span of one
// round shares.
type span struct {
	Name    string
	Start   time.Duration
	End     time.Duration
	Parent  int
	Round   int
	Tid     int
	Instant bool
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// chromeEvent is one trace_event record (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders the spans as a Chrome trace: one process per round, one
// thread per lane (round, connection writers, scraper, reports).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		e := chromeEvent{
			Name: s.Name, Ph: "X", Pid: s.Round, Tid: s.Tid,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "round": s.Round},
		}
		if s.Instant {
			e.Ph, e.Dur, e.S = "i", 0, "t"
		}
		evs = append(evs, e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
