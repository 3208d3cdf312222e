package sessionizer

import (
	"testing"

	"vqoe/internal/weblog"
)

// splitsFromGroup renders the batch path's session splits as
// (start, end, count) tuples.
func splitsFromGroup(entries []weblog.Entry, cfg Config) [][3]float64 {
	var out [][3]float64
	for _, s := range Group(entries, cfg) {
		out = append(out, [3]float64{s.Start, s.End, float64(len(s.Indices))})
	}
	return out
}

// newTestTracker returns a ColTracker wired to a fresh test interner,
// the way an engine shard wires one to the engine's.
func newTestTracker(cfg Config) (*ColTracker, *testInterner) {
	in := newTestInterner()
	tr := NewColTracker(cfg)
	tr.Resolve = in.name
	return tr, in
}

// splitsFromTracker pushes the same entries one at a time through a
// ColTracker and collects the splits in start order.
func splitsFromTracker(entries []weblog.Entry, cfg Config) [][3]float64 {
	tr, in := newTestTracker(cfg)
	var closed []ColClosed
	for _, e := range entries {
		r := in.rec(e)
		if c, ok := tr.Push(&r); ok {
			closed = append(closed, c)
		}
	}
	closed = tr.FlushInto(closed)
	tr.sortClosed(closed)
	var out [][3]float64
	for _, c := range closed {
		out = append(out, [3]float64{c.Start, c.End, float64(c.Entries)})
	}
	return out
}

func assertSameSplits(t *testing.T, entries []weblog.Entry, cfg Config) {
	t.Helper()
	batch := splitsFromGroup(entries, cfg)
	inc := splitsFromTracker(entries, cfg)
	if len(batch) != len(inc) {
		t.Fatalf("batch path found %d sessions, incremental %d", len(batch), len(inc))
	}
	for i := range batch {
		if batch[i] != inc[i] {
			t.Errorf("session %d: batch %v vs incremental %v", i, batch[i], inc[i])
		}
	}
}

func TestTrackerMatchesGroupSequential(t *testing.T) {
	entries, _ := buildStream(t, 6, 60, 11)
	assertSameSplits(t, entries, DefaultConfig())
}

func TestTrackerMatchesGroupShortGaps(t *testing.T) {
	// gaps below the idle threshold: only page-load boundaries split
	entries, _ := buildStream(t, 4, 5, 12)
	assertSameSplits(t, entries, DefaultConfig())
	// and with page boundaries off, everything merges the same way
	cfg := DefaultConfig()
	cfg.PageBoundary = false
	assertSameSplits(t, entries, cfg)
}

func TestTrackerMatchesGroupParallelPlayback(t *testing.T) {
	// the §5.2 confusion case: one subscriber playing two videos at
	// once. Both paths must be confused identically.
	e1, _ := buildStream(t, 1, 0, 13)
	e2, _ := buildStream(t, 1, 0, 14)
	var entries []weblog.Entry
	i, j := 0, 0
	for i < len(e1) || j < len(e2) {
		if j >= len(e2) || (i < len(e1) && e1[i].Timestamp <= e2[j].Timestamp) {
			entries = append(entries, e1[i])
			i++
		} else {
			entries = append(entries, e2[j])
			j++
		}
	}
	assertSameSplits(t, entries, DefaultConfig())
}

func TestTrackerIgnoresForeignHosts(t *testing.T) {
	tr, in := newTestTracker(DefaultConfig())
	r := in.rec(weblog.Entry{Host: "ads.example.com", Subscriber: "x"})
	if _, ok := tr.Push(&r); ok {
		t.Error("foreign host closed a session")
	}
	if tr.Open() != 0 {
		t.Error("foreign host opened a session")
	}
}

func TestTrackerMultiSubscriber(t *testing.T) {
	// interleave two subscribers; each must split independently,
	// identically to running Group on its own sub-stream.
	ea, _ := buildStream(t, 3, 60, 15)
	eb, _ := buildStream(t, 2, 60, 16)
	for i := range eb {
		eb[i].Subscriber = "other"
	}
	var merged []weblog.Entry
	i, j := 0, 0
	for i < len(ea) || j < len(eb) {
		if j >= len(eb) || (i < len(ea) && ea[i].Timestamp <= eb[j].Timestamp) {
			merged = append(merged, ea[i])
			i++
		} else {
			merged = append(merged, eb[j])
			j++
		}
	}

	tr, in := newTestTracker(DefaultConfig())
	perSub := map[string][][3]float64{}
	collect := func(cs []ColClosed) {
		for _, c := range cs {
			sub := in.name(c.Sub)
			perSub[sub] = append(perSub[sub], [3]float64{c.Start, c.End, float64(c.Entries)})
		}
	}
	for _, e := range merged {
		r := in.rec(e)
		if c, ok := tr.Push(&r); ok {
			collect([]ColClosed{c})
		}
	}
	if tr.Open() != 2 {
		t.Fatalf("open sessions = %d, want 2", tr.Open())
	}
	collect(tr.FlushInto(nil))

	for sub, stream := range map[string][]weblog.Entry{"sub": ea, "other": eb} {
		want := splitsFromGroup(stream, DefaultConfig())
		got := perSub[sub]
		if len(got) != len(want) {
			t.Fatalf("%s: %d sessions, want %d", sub, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("%s session %d: got %v want %v", sub, k, got[k], want[k])
			}
		}
	}
}

func TestTrackerAdvanceEvictsIdle(t *testing.T) {
	entries, _ := buildStream(t, 1, 0, 17)
	tr, in := newTestTracker(DefaultConfig())
	for _, e := range entries {
		r := in.rec(e)
		tr.Push(&r)
	}
	if tr.Open() != 1 {
		t.Fatalf("open = %d", tr.Open())
	}
	end := entries[len(entries)-1].Timestamp
	// not idle yet
	if got := tr.AdvanceInto(end+1, nil); len(got) != 0 {
		t.Errorf("advance before the gap evicted %d sessions", len(got))
	}
	// past the gap
	got := tr.AdvanceInto(end+DefaultConfig().IdleGap+1, nil)
	if len(got) != 1 {
		t.Fatalf("advance evicted %d sessions, want 1", len(got))
	}
	if tr.Open() != 0 {
		t.Error("session still open after eviction")
	}
	if got[0].End != end {
		t.Errorf("evicted session end %v, want %v", got[0].End, end)
	}
}
