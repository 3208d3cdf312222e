package engine

import (
	"testing"

	"vqoe/internal/obs"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// TestTracedPushLoopAllocatesNothing pins the lifecycle trace's cost on
// the shard worker: with the tracer attached, a message that opens a
// session, appends media chunks and closes the previous session on the
// watch-page boundary allocates nothing in steady state — the events
// queue in the shard's reused buffer and enter the ring in batches
// (the message carries more events than traceBatchMax, so the early
// flush runs too), names resolve through the interner's published
// view, and the flow buffers recycle. MinChunks is out of reach so the
// closed fragments are discarded before the forests (the shard has
// none).
func TestTracedPushLoopAllocatesNothing(t *testing.T) {
	in := newInterner(1)
	var sub, coh, sh [1]uint32
	in.resolve([]weblog.Entry{{Subscriber: "sub-a"}}, sub[:], coh[:], sh[:])

	cfg := Config{Shards: 1, MinChunks: 1 << 30, SweepEverySec: -1, Obs: obs.NewObserver(1, 0)}.WithDefaults()
	s := newShard(0, nil, cfg, nil, in)
	recs := []sessionizer.Rec{{Sub: sub[0], Kind: weblog.HostWatchPage, Ts: 0}}
	const chunks = traceBatchMax + 44
	for i := 1; i <= chunks; i++ {
		recs = append(recs, sessionizer.Rec{Sub: sub[0], Kind: weblog.HostMedia, Ts: float64(i), Dur: 0.5, KB: 300})
	}
	msg := message{recs: recs}
	s.handle(msg) // opens the first session, grows the buffers
	s.handle(msg)

	before := s.tracer.Total()
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, func() { s.handle(msg) }); allocs != 0 {
		t.Errorf("traced message allocates %v times, want 0", allocs)
	}
	// per message: one close, one open, the chunks (AllocsPerRun adds a
	// warm-up run)
	if got, want := s.tracer.Total()-before, uint64((runs+1)*(chunks+2)); got != want {
		t.Errorf("tracer recorded %d events over %d messages, want %d", got, runs+1, want)
	}
	evs := s.tracer.Snapshot()
	for i, ev := range evs {
		if ev.Subscriber != "sub-a" {
			t.Fatalf("event %d resolved subscriber %q", i, ev.Subscriber)
		}
		if i > 0 && ev.Seq != evs[i-1].Seq+1 {
			t.Fatalf("event %d has Seq %d after %d", i, ev.Seq, evs[i-1].Seq)
		}
	}
}
