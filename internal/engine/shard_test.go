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
	var first [1]sessionizer.Rec
	var sh [1]uint32
	in.resolve([]weblog.Entry{{Subscriber: "sub-a"}}, first[:], sh[:])
	sub := [1]uint32{first[0].Sub}

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

// TestScatterSteadyStateZeroAlloc pins the engine half of the fused
// wire door (the decode half is pinned beside the decoder): a frame of
// resolved recs scattered into a slab and pushed through both shards'
// loops allocates nothing once the slab and the flow buffers have
// grown. The shards are driven on this goroutine, views in hand, so the
// count is exact; what submit adds is a pool Get and two channel sends.
// Each frame closes the previous session of every subscriber on the
// watch-page boundary, so flow state does not accumulate; MinChunks is
// out of reach, so the fragments are discarded before the forests (the
// shards have none).
func TestScatterSteadyStateZeroAlloc(t *testing.T) {
	const nsh = 2
	in := newInterner(nsh)
	names := [][]byte{[]byte("sub-a"), []byte("sub-b"), []byte("sub-c"), []byte("sub-d"), []byte("sub-e")}
	refs := make([]sessionizer.SubRef, len(names))
	in.intern(names, refs, nil, nil)
	cfg := Config{Shards: nsh, MinChunks: 1 << 30, SweepEverySec: -1}.WithDefaults()
	var shards [nsh]*shard
	for i := range shards {
		shards[i] = newShard(i, nil, cfg, nil, in)
	}
	var recs []sessionizer.Rec
	var shardOf []uint32
	for i := 0; i < 256; i++ {
		ref := refs[i%len(refs)]
		kind := weblog.HostMedia
		if i < len(refs) {
			kind = weblog.HostWatchPage
		}
		recs = append(recs, sessionizer.Rec{Sub: ref.ID, Kind: kind, Ts: float64(i), Dur: 0.5, KB: 300})
		shardOf = append(shardOf, ref.Shard)
	}
	b := &recSlab{}
	frame := func() {
		views := b.scatter(recs, shardOf, nsh)
		for i, s := range shards {
			if len(b.per[i]) > 0 {
				s.handle(message{recs: b.per[i]})
				views--
			}
		}
		if views != 0 {
			t.Fatalf("scatter counted %d views more than it filled", views)
		}
	}
	frame()
	frame()
	if allocs := testing.AllocsPerRun(50, frame); allocs != 0 {
		t.Errorf("a scattered frame allocates %v times, want 0", allocs)
	}
	if got := shards[0].events.Load() + shards[1].events.Load(); got != 53*int64(len(recs)) {
		t.Errorf("shards took %d recs, want %d", got, 53*len(recs))
	}
	if shards[0].events.Load() == 0 || shards[1].events.Load() == 0 {
		t.Error("fixture routes every subscriber to one shard")
	}
}

// TestFeedRecsReportsDone: the completion callback of the fused door
// runs exactly once per batch — after every shard has processed its
// share, or at once when the engine takes none of the batch.
func TestFeedRecsReportsDone(t *testing.T) {
	e := New(nil, Config{Shards: 2, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
	names := [][]byte{[]byte("sub-a"), []byte("sub-b"), []byte("sub-c"), []byte("sub-d"), []byte("sub-e")}
	refs := make([]sessionizer.SubRef, len(names))
	e.Intern(names, refs, nil, nil)
	var recs []sessionizer.Rec
	var shardOf []uint32
	for i, ref := range refs {
		recs = append(recs, sessionizer.Rec{Sub: ref.ID, Kind: weblog.HostMedia, Ts: float64(i)})
		shardOf = append(shardOf, ref.Shard)
	}
	calls := make(chan int64, 4)
	done := func() { calls <- e.shards[0].events.Load() + e.shards[1].events.Load() }
	for batch := int64(1); batch <= 3; batch++ {
		e.FeedRecs(recs, shardOf, done)
		if took := <-calls; took != batch*int64(len(recs)) {
			t.Fatalf("batch %d reported done with %d of %d recs taken", batch, took, batch*int64(len(recs)))
		}
	}
	e.FeedRecs(nil, nil, done)
	e.Drain()
	e.FeedRecs(recs, shardOf, done)
	for i := 0; i < 2; i++ {
		select {
		case <-calls:
		default:
			t.Fatal("an empty batch or one fed after Drain did not report done at once")
		}
	}
	select {
	case <-calls:
		t.Fatal("done ran more than once for some batch")
	default:
	}
}
