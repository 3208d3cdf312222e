package engine

import (
	"fmt"
	"hash/maphash"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
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
	var first recSlab
	in.digest(&first, []weblog.Entry{{Subscriber: "sub-a"}})
	sub := [1]uint32{first.recs[0].Sub}

	cfg := Config{Shards: 1, MinChunks: 1 << 30, SweepEverySec: -1, Obs: obs.NewObserver(1, 0)}.WithDefaults()
	s := newShard(0, nil, cfg, nil, in)
	recs := []sessionizer.Rec{{Sub: sub[0], Kind: weblog.HostWatchPage, Ts: 0}}
	const chunks = traceBatchMax + 44
	for i := 1; i <= chunks; i++ {
		recs = append(recs, sessionizer.Rec{Sub: sub[0], Kind: weblog.HostMedia, Ts: float64(i), Dur: 0.5, KB: 300})
	}
	msg := share(recs)
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

// share is a message handing a shard every rec of recs, as submit mails
// a shard its share of a batch; its slab is never returned to a pool.
func share(recs []sessionizer.Rec) message {
	b := &recSlab{recs: recs}
	b.pending.Store(math.MaxInt32)
	at := make([]uint32, len(recs))
	for i := range at {
		at[i] = uint32(i)
	}
	return message{at: at, slab: b}
}

// TestScatterSteadyStateZeroAlloc pins the engine half of the fused
// wire door (the decode half is pinned beside the decoder): a frame of
// resolved recs — two of them rejects, one of each reason — written into
// a slab as the decoder writes it, scattered, and read in place by both
// shards' loops allocates nothing once the slab and the flow buffers
// have grown, and the scatter moves no rec. The shards are driven on this
// goroutine, views in hand, so the count is exact; what submit adds is a
// pool Get and two channel sends.
// Each frame closes the previous session of every subscriber on the
// watch-page boundary, so flow state does not accumulate; MinChunks is
// out of reach, so the fragments are discarded before the forests (the
// shards have none).
func TestScatterSteadyStateZeroAlloc(t *testing.T) {
	const nsh = 2
	in := newInterner(nsh)
	names := [][]byte{[]byte("sub-a"), []byte("sub-b"), []byte("sub-c"), []byte("sub-d"), []byte("sub-e")}
	refs := refsOf(in, names)
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
	recs[100].Dur, recs[200].KB = math.NaN(), -1
	b := &recSlab{recs: make([]sessionizer.Rec, len(recs)), shardOf: make([]uint32, len(recs))}
	frame := func() {
		copy(b.recs, recs) // the decoder's one write
		copy(b.shardOf, shardOf)
		if rejected := b.scatter(nsh); rejected != [rejectReasons]uint32{rejectNegative: 1, rejectNonFinite: 1} {
			t.Fatalf("scatter rejected %v, want one rec of each reason", rejected)
		}
		refs := b.pending.Load() - 1 // the submit loop's own
		for i, s := range shards {
			if at := b.positions(i); len(at) > 0 {
				s.handle(message{at: at, slab: b})
				refs--
			}
		}
		if refs != 0 {
			t.Fatalf("scatter counted %d views more than it filled", refs)
		}
	}
	frame()
	frame()
	if allocs := testing.AllocsPerRun(50, frame); allocs != 0 {
		t.Errorf("a scattered frame allocates %v times, want 0", allocs)
	}
	if got := shards[0].events.Load() + shards[1].events.Load(); got != 53*int64(len(recs)-2) {
		t.Errorf("shards took %d recs, want %d", got, 53*(len(recs)-2))
	}
	for i := range recs {
		if math.Float64bits(b.recs[i].Dur) != math.Float64bits(recs[i].Dur) || b.recs[i].KB != recs[i].KB || b.recs[i].Sub != recs[i].Sub {
			t.Fatalf("scatter moved or wrote rec %d: %+v", i, b.recs[i])
		}
	}
	if shards[0].events.Load() == 0 || shards[1].events.Load() == 0 {
		t.Error("fixture routes every subscriber to one shard")
	}
}

// TestBatchFeedReportsDone: the completion callback of the fused door
// runs exactly once per batch — after every shard has processed its
// share, or at once when the engine takes none of the batch (empty,
// every rec rejected, or fed after Drain).
func TestBatchFeedReportsDone(t *testing.T) {
	e := New(nil, Config{Shards: 2, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
	names := [][]byte{[]byte("sub-a"), []byte("sub-b"), []byte("sub-c"), []byte("sub-d"), []byte("sub-e")}
	refs := refsOf(e.interner, names)
	var recs []sessionizer.Rec
	var shardOf []uint32
	for i, ref := range refs {
		recs = append(recs, sessionizer.Rec{Sub: ref.ID, Kind: weblog.HostMedia, Ts: float64(i)})
		shardOf = append(shardOf, ref.Shard)
	}
	// feed writes recs into a lent batch, as the decoder does, and hands
	// it back
	feed := func(recs []sessionizer.Rec, shardOf []uint32, done func()) {
		to, shards, feed := e.Batch(len(recs))
		copy(to, recs)
		copy(shards, shardOf)
		feed(len(recs), done)
	}
	calls := make(chan int64, 4)
	done := func() { calls <- e.shards[0].events.Load() + e.shards[1].events.Load() }
	for batch := int64(1); batch <= 3; batch++ {
		feed(recs, shardOf, done)
		if took := <-calls; took != batch*int64(len(recs)) {
			t.Fatalf("batch %d reported done with %d of %d recs taken", batch, took, batch*int64(len(recs)))
		}
	}
	feed(nil, nil, done)
	bad := append([]sessionizer.Rec(nil), recs...)
	for i := range bad {
		bad[i].Ts = math.Inf(1)
	}
	feed(bad, shardOf, done)
	e.Drain()
	feed(recs, shardOf, done)
	for i := 0; i < 3; i++ {
		select {
		case <-calls:
		default:
			t.Fatal("an empty batch, an all-rejected one or one fed after Drain did not report done at once")
		}
	}
	if got := e.Rejected(); got[rejectNonFinite] != int64(len(bad)) || got[rejectNegative] != 0 {
		t.Errorf("rejected %v, want the %d recs of the all-Inf batch as non_finite", got, len(bad))
	}
	select {
	case <-calls:
		t.Fatal("done ran more than once for some batch")
	default:
	}
}

// inertEngine is an Engine whose shards have no worker: its doors
// intern, admit, scatter and mail as ever, and drain reads the mailboxes
// as the shard loop does — each message's positions, in order, into its
// slab's recs — answering replies and releasing slabs, until the
// mailboxes close. pushed[s] is then every rec shard s would have pushed.
func inertEngine(nsh int) (e *Engine, drain func() (pushed [][]sessionizer.Rec)) {
	e = &Engine{cfg: Config{Shards: nsh, Mailbox: 64}.WithDefaults(), interner: newInterner(nsh)}
	e.slabs.New = e.newSlab
	pushed := make([][]sessionizer.Rec, nsh)
	var wg sync.WaitGroup
	for i := 0; i < nsh; i++ {
		s := &shard{id: i, mail: make(chan message, e.cfg.Mailbox)}
		e.shards = append(e.shards, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for msg := range s.mail {
				for _, p := range msg.at {
					pushed[i] = append(pushed[i], msg.slab.recs[p])
				}
				if msg.reply != nil {
					msg.reply <- nil
				}
				msg.slab.release()
			}
		}()
	}
	return e, func() [][]sessionizer.Rec {
		for _, s := range e.shards {
			close(s.mail)
		}
		wg.Wait()
		return pushed
	}
}

// TestHandOffMatchesScatter holds the one-copy hand-off to the copying
// one it replaced: frames whose entries reach every shard, with NaN and
// negative floats among them, sent through the wire door (a listener
// feeding the engine's lent batches) and through Ingest, make each shard
// push exactly the recs a copying scatter gave it — every admitted rec of
// the batch bound for that shard, whole, in arrival order — and the
// rejects nowhere.
func TestHandOffMatchesScatter(t *testing.T) {
	const nsh, frames, perFrame = 4, 6, 97
	var batches [][]weblog.Entry
	for f := 0; f < frames; f++ {
		var b []weblog.Entry
		for i := 0; i < perFrame; i++ {
			n := f*perFrame + i
			e := weblog.Entry{
				Timestamp: float64(n), Subscriber: fmt.Sprintf("sub-%d", n%23), Host: "r1---sn-a.googlevideo.com",
				Bytes: 1000 + n, TransactionSec: 0.5, RTTMin: 0.01, RTTAvg: 0.02, RTTMax: float64(n%5) / 10,
				BDP: 1e4, BIFAvg: 2e3, BIFMax: 4e3, LossPct: 0.1, RetransPct: float64(n % 3),
			}
			if n%5 == 0 {
				e.Host = weblog.HostPage
				e.Region, e.Device = fmt.Sprintf("r%d", n%3), "tv"
			}
			switch n % 13 {
			case 3:
				e.RTTAvg = math.NaN()
			case 7:
				e.BDP = -1
			case 11:
				e.Timestamp = math.Inf(1)
			}
			b = append(b, e)
		}
		batches = append(batches, b)
	}

	// what a copying scatter gives each shard, from the entries alone
	scatter := func(e *Engine) (want [][]sessionizer.Rec, rejects int) {
		want = make([][]sessionizer.Rec, nsh)
		for _, b := range batches {
			for i := range b {
				en := &b[i]
				var id [1]sessionizer.SubRef
				e.Find([][]byte{[]byte(en.Subscriber)}, id[:])
				var c [1]sessionizer.Rec
				e.Settle(nil, [][]byte{weblog.AppendCohortKey(nil, en.Region, en.Device, en.Cap)}, c[:], nil)
				r := sessionizer.Rec{Sub: id[0].ID, Cohort: c[0].Cohort, Kind: weblog.ClassifyHost(en.Host),
					Ts: en.Timestamp, Dur: en.TransactionSec, KB: float64(en.Bytes) / 1000,
					RTTMin: en.RTTMin, RTTAvg: en.RTTAvg, RTTMax: en.RTTMax, BDP: en.BDP,
					BIFAvg: en.BIFAvg, BIFMax: en.BIFMax, Loss: en.LossPct, Retrans: en.RetransPct}
				if admit(&r) >= 0 {
					rejects++
					continue
				}
				want[id[0].Shard] = append(want[id[0].Shard], r)
			}
		}
		return want, rejects
	}
	check := func(door string, e *Engine, got [][]sessionizer.Rec) {
		t.Helper()
		want, rejects := scatter(e)
		if rejects == 0 {
			t.Fatal("fixture has no rejects")
		}
		if r := e.Rejected(); r[rejectNegative]+r[rejectNonFinite] != int64(rejects) {
			t.Errorf("%s: engine rejected %v, want %d", door, r, rejects)
		}
		for s := range want {
			if len(want[s]) == 0 {
				t.Fatalf("fixture routes nothing to shard %d", s)
			}
			if len(got[s]) != len(want[s]) {
				t.Fatalf("%s: shard %d pushed %d recs, want %d", door, s, len(got[s]), len(want[s]))
			}
			for i := range want[s] {
				if fmt.Sprintf("%#v", got[s][i]) != fmt.Sprintf("%#v", want[s][i]) {
					t.Fatalf("%s: shard %d rec %d is %+v, want %+v", door, s, i, got[s][i], want[s][i])
				}
			}
		}
	}

	ingest, drain := inertEngine(nsh)
	for _, b := range batches {
		ingest.Ingest(b)
	}
	check("Ingest", ingest, drain())

	fused, drain := inertEngine(nsh)
	srv := wire.NewServer(wire.Config{Handler: wire.Handler{Recs: fused}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := c.SendEntries(b); err != nil {
			t.Fatal(err)
		}
	}
	if ack, err := c.Sync(); err != nil || ack.Entries != frames*perFrame {
		t.Fatalf("ack %+v, %v", ack, err)
	}
	c.Close()
	srv.Close()
	check("wire", fused, drain())
}

// TestDigestSteadyStateZeroAlloc pins the Entry doors' front half the
// way TestScatterSteadyStateZeroAlloc pins the wire door's: a warm
// 256-entry batch — every subscriber and every region/device/cap triple
// already interned — digested and scattered into a slab allocates
// nothing: the lookups build no strings, the scratch and the slab are
// reused, and publish has nothing new to store. Nor does Find, the wire
// door's label lookup, of the same 256 warm names as one batch.
func TestDigestSteadyStateZeroAlloc(t *testing.T) {
	const nsh = 2
	in := newInterner(nsh)
	entries := make([]weblog.Entry, 256)
	for i := range entries {
		entries[i] = weblog.Entry{
			Timestamp: float64(i), Subscriber: fmt.Sprintf("sub-%d", i%37),
			Host: "r1---sn-aaaa.googlevideo.com", Bytes: 300_000, TransactionSec: 0.5,
			Region: fmt.Sprintf("region-%d", i%5), Device: fmt.Sprintf("device-%d", i%3), Cap: "cap-a",
		}
	}
	b := &recSlab{}
	batch := func() {
		in.digest(b, entries)
		if b.scatter(nsh); b.pending.Load() != nsh+1 {
			t.Fatalf("scatter filled %d of %d shards", b.pending.Load()-1, nsh)
		}
	}
	batch()
	view := in.view.Load()
	if allocs := testing.AllocsPerRun(50, batch); allocs != 0 {
		t.Errorf("a warm digested batch allocates %v times, want 0", allocs)
	}
	if in.view.Load() != view {
		t.Error("a batch that interned nothing published a new view")
	}
	warm, refs := make([][]byte, len(entries)), make([]sessionizer.SubRef, len(entries))
	for i := range entries {
		warm[i] = []byte(entries[i].Subscriber)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		in.find(warm, refs)
		if refs[36].Name != "sub-36" {
			t.Fatalf("find(%q) = %+v", warm[36], refs[36])
		}
	}); allocs != 0 {
		t.Errorf("find of a batch of warm names allocates %v times, want 0", allocs)
	}
	if got := len(in.subs.names) - 1; got != 37 {
		t.Errorf("%d subscribers interned, want 37", got)
	}
	if len(in.keys) != 1+15 {
		t.Errorf("%d cohort keys, want 15", len(in.keys)-1)
	}
	for i, r := range b.recs {
		if r.Sub == 0 || r.Cohort == 0 || r.Kind != weblog.HostMedia || r.KB != 300 {
			t.Fatalf("rec %d digested as %+v", i, r)
		}
	}
}

// TestDoorsInternAlike: the two doors are adapters onto one interning
// routine, so an identity gets the same ID, home shard and cohort ID
// whichever door saw it first — offered through Settle and then Feed,
// and in the other order on a fresh engine — and an all-empty triple is
// cohort 0 through both. IDs go out in first-sight order either way.
func TestDoorsInternAlike(t *testing.T) {
	const nsh = 4
	subs := []string{"sub-a", "sub-b", "sub-c", "sub-d", "sub-e", "sub-f", "sub-g"}
	triples := [][3]string{{"eu-west", "phone", "10M"}, {"", "", ""}, {"eu-west", "", ""}, {"", "tv", ""}, {"us-east", "tv", "50M"}}
	var entries []weblog.Entry
	var names, keys [][]byte
	for i, s := range subs {
		tr := triples[i%len(triples)]
		entries = append(entries, weblog.Entry{Timestamp: float64(i), Subscriber: s, Region: tr[0], Device: tr[1], Cap: tr[2]})
		names = append(names, []byte(s))
		keys = append(keys, weblog.AppendCohortKey(nil, []byte(tr[0]), []byte(tr[1]), []byte(tr[2])))
	}
	type identity struct {
		sub    struct{ id, shard uint32 }
		cohort uint32
	}
	// viaWire and viaEntries offer everything through one door and read
	// back what each entry's identities resolved to
	viaWire := func(e *Engine) []identity {
		recs, shardOf := make([]sessionizer.Rec, len(names)), make([]uint32, len(names))
		e.Settle(names, keys, recs, shardOf)
		out := make([]identity, len(names))
		for i, r := range recs {
			if got := e.interner.name(r.Sub); got != subs[i] {
				t.Fatalf("Settle resolved %q as %q", subs[i], got)
			}
			out[i] = identity{cohort: r.Cohort}
			out[i].sub.id, out[i].sub.shard = r.Sub, shardOf[i]
		}
		return out
	}
	viaEntries := func(e *Engine) []identity {
		e.Feed(entries)
		in := e.interner
		in.mu.Lock()
		defer in.mu.Unlock()
		out := make([]identity, len(entries))
		refs := make([]sessionizer.SubRef, len(entries))
		in.find(names, refs)
		for i, key := range keys {
			id, _ := probe(in.cohorts.slots, in.cohorts.names, maphash.Bytes(idSeed, key), key)
			out[i] = identity{cohort: id}
			out[i].sub.id, out[i].sub.shard = refs[i].ID, refs[i].Shard
		}
		return out
	}
	check := func(order string, first, second []identity, e *Engine) {
		t.Helper()
		for i := range first {
			if first[i] != second[i] {
				t.Errorf("%s: %q resolved to %+v through the first door, %+v through the second", order, subs[i], first[i], second[i])
			}
			id := first[i]
			if id.sub.id != uint32(i+1) || id.sub.shard != fnvShard(subs[i], nsh) || e.interner.name(id.sub.id) != subs[i] {
				t.Errorf("%s: %q is ID %d on shard %d, want first-sight ID %d on shard %d", order, subs[i], id.sub.id, id.sub.shard, i+1, fnvShard(subs[i], nsh))
			}
			tr := triples[i%len(triples)]
			if empty := tr == [3]string{}; empty != (id.cohort == 0) {
				t.Errorf("%s: triple %q is cohort %d", order, tr, id.cohort)
			} else if !empty && *e.interner.cohortKey(id.cohort) != (cohort.Key{Region: tr[0], Device: tr[1], Cap: tr[2]}) {
				t.Errorf("%s: cohort %d resolves to %+v, want %q", order, id.cohort, *e.interner.cohortKey(id.cohort), tr)
			}
		}
		if got := len(e.interner.keys) - 1; got != len(triples)-1 {
			t.Errorf("%s: %d cohort keys interned, want %d", order, got, len(triples)-1)
		}
		if got, _, _ := e.InternerStats(); got != len(subs) {
			t.Errorf("%s: %d subscribers interned, want %d", order, got, len(subs))
		}
	}
	cfg := Config{Shards: nsh, MinChunks: 1 << 30, SweepEverySec: -1}

	e := New(nil, cfg, nil)
	w := viaWire(e)
	check("Settle then Feed", w, viaEntries(e), e)
	e.Drain()

	e = New(nil, cfg, nil)
	f := viaEntries(e)
	check("Feed then Settle", f, viaWire(e), e)
	e.Drain()
	for i := range w {
		if w[i] != f[i] {
			t.Errorf("%q is %+v wire-first, %+v entry-first", subs[i], w[i], f[i])
		}
	}
}

// TestInternAllocatesPerBatchNotPerName pins first sight through both
// doors: a batch of 256 never-seen subscribers and 8 never-seen cohorts
// costs the heap under one object on average (AllocsPerRun's whole
// part reads 0) — a fifth of a name block, now and then a step of the
// id → string tables and the view a moved table needs — not one per
// name and four per cohort, nor a view per batch. Both indexes are sized ahead, so the
// count is first sight's own: an index doubles once per doubling of
// what it holds. Every stored label equals what cohort.Key.String
// renders.
func TestInternAllocatesPerBatchNotPerName(t *testing.T) {
	const names, triples, maxObjects = 256, 8, 0
	batch := 0
	// a frame's recs: every name twice, the cohorts in turn
	fresh := func() (subs, keys [][]byte, tr [][3]string) {
		batch++
		for i := 0; i < names; i++ {
			b := []byte(fmt.Sprintf("sub-%d-%d", batch, i))
			subs = append(subs, b, b)
		}
		for i := range subs {
			tr = append(tr, [3]string{fmt.Sprintf("region-%d", batch), fmt.Sprintf("dev-%d", i%triples), ""})
			keys = append(keys, weblog.AppendCohortKey(nil, tr[i][0], tr[i][1], tr[i][2]))
		}
		return subs, keys, tr
	}
	// AllocsPerRun calls f runs+1 times; every call gets its own batch.
	// The first batches go in unmeasured: young tables double often
	const warm, runs = 16, 64

	in := newInterner(2)
	in.subs.slots = make([]atomic.Uint64, 1<<17)    // load ½ at 65,536 names; the test interns 37,376
	in.cohorts.slots = make([]atomic.Uint64, 1<<12) // and 1,172 cohorts
	var subs, keys [][][]byte
	for i := 0; i <= warm+runs; i++ {
		s, c, _ := fresh()
		subs, keys = append(subs, s), append(keys, c)
	}
	recs, shardOf := make([]sessionizer.Rec, 2*names), make([]uint32, 2*names)
	k := 0
	for ; k < warm; k++ {
		in.settle(subs[k], keys[k], recs, shardOf)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		in.settle(subs[k], keys[k], recs, shardOf)
		k++
	}); allocs > maxObjects {
		t.Errorf("settle of %d new names and %d new cohorts allocates %v objects, want ≤ %d", names, triples, allocs, maxObjects)
	}
	if got := len(in.subs.names) - 1; got != (warm+runs+1)*names {
		t.Errorf("%d subscribers interned, want %d", got, (warm+runs+1)*names)
	}
	for i, r := range recs {
		if want := string(subs[warm+runs][i]); in.name(r.Sub) != want || shardOf[i] != fnvShard(want, 2) {
			t.Fatalf("rec %d resolved %q as %q on shard %d", i, want, in.name(r.Sub), shardOf[i])
		}
	}

	entries := make([][]weblog.Entry, runs+1)
	for i := range entries {
		s, _, tr := fresh()
		for j, b := range s {
			entries[i] = append(entries[i], weblog.Entry{Subscriber: string(b), Region: tr[j][0], Device: tr[j][1], Cap: tr[j][2]})
		}
	}
	scratch := &recSlab{}
	in.digest(scratch, entries[0]) // grows the scratch
	k = 1
	if allocs := testing.AllocsPerRun(runs-1, func() {
		in.digest(scratch, entries[k])
		k++
	}); allocs > maxObjects {
		t.Errorf("digest of %d new names and %d new cohorts allocates %v objects, want ≤ %d", names, triples, allocs, maxObjects)
	}

	if got, want := len(in.keys)-1, (warm+2*(runs+1))*triples; got != want {
		t.Fatalf("%d cohorts interned, want %d", got, want)
	}
	for id, key := range in.keys {
		if got := in.cohortLabel(uint32(id)); got != key.String() {
			t.Errorf("cohort %d: stored label %q, key renders %q", id, got, key.String())
		}
	}
	for _, tr := range [][3]string{{"eu", "", ""}, {"", "tv", ""}, {"", "", "10M"}, {"a/b", "-", ""}, {strings.Repeat("r", 200), "tv", "hd"}} {
		canon := weblog.AppendCohortKey(nil, tr[0], tr[1], tr[2])
		in.mu.Lock()
		id := lookupCohort(in, maphash.Bytes(idSeed, canon), canon)
		in.mu.Unlock()
		key := cohort.Key{Region: tr[0], Device: tr[1], Cap: tr[2]}
		if in.keys[id] != key || in.labels[id] != key.String() {
			t.Errorf("triple %q interned as %+v labelled %q, want label %q", tr, in.keys[id], in.labels[id], key.String())
		}
	}
}

// TestAssessSteadyStateZeroAlloc pins the whole close path of a deployed
// process: a warm shard with the cohort rollup, the quality monitor and
// the flight recorder all on, closing 45-chunk sessions of subscribers
// it knows, allocates nothing per closed session — with the recorder at
// its budget and retaining every one of them (SampleN 1), and the
// monitor's pending stripes full, as both are for good after the first
// hours of traffic. Flow pages, featurization scratch and report buffer
// recycle; the retained session's strings are the interner's and its
// floats go into reused segments; the tracked prediction overwrites the
// oldest.
func TestAssessSteadyStateZeroAlloc(t *testing.T) {
	clearCfg, hasCfg := workload.DefaultConfig(300), workload.DefaultConfig(150)
	clearCfg.Seed, hasCfg.Seed, hasCfg.AdaptiveFraction = 71, 72, 1
	tcfg := core.DefaultTrainConfig()
	tcfg.CVFolds, tcfg.Forest.Trees = 3, 8
	fw, _, err := core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), tcfg)
	if err != nil {
		t.Fatal(err)
	}

	const subs, chunks = 8, 45
	in := newInterner(1)
	names := make([][]byte, subs)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("sub-%d", i))
	}
	refs := refsOf(in, names)
	var cohorts [1]sessionizer.Rec
	in.settle(names[:1], [][]byte{weblog.AppendCohortKey(nil, "eu-west", "phone", "")}, cohorts[:], make([]uint32, 1))

	rec := flight.New(flight.Config{Shards: 1, SampleN: 1, MaxBytes: 64 << 10})
	rec.SetAttributor(fw.AttributeVectors)
	qm := core.NewQualityMonitor(fw, 1, qualitymon.Thresholds{})
	for _, ref := range refs {
		for i := 0; i < 4096; i++ { // fill the subscriber's pending stripe
			qm.TrackPrediction(qualitymon.Prediction{Subscriber: ref.Name, Start: -2, End: -1})
		}
	}
	reports := 0
	cfg := Config{Shards: 1, SweepEverySec: -1, Quality: qm, Cohorts: cohort.NewRollup(cohort.Config{Shards: 1}), Flight: rec}.WithDefaults()
	s := newShard(0, fw, cfg, func(Report) { reports++ }, in)

	// one message: every subscriber loads a watch page — closing its
	// previous session — and plays 45 chunks
	var recs []sessionizer.Rec
	for _, ref := range refs {
		recs = append(recs, sessionizer.Rec{Sub: ref.ID, Cohort: cohorts[0].Cohort, Kind: weblog.HostWatchPage})
		for c := 0; c < chunks; c++ {
			recs = append(recs, sessionizer.Rec{
				Sub: ref.ID, Cohort: cohorts[0].Cohort, Kind: weblog.HostMedia,
				Dur: 0.4 + 0.01*float64(c%7), KB: 300 + 40*float64(c%5),
				RTTMin: 20, RTTAvg: 30, RTTMax: 50 + float64(c%3), BDP: 90, BIFAvg: 40, BIFMax: 80,
			})
		}
	}
	clock := 0.0
	msg := share(recs)
	message := func() {
		for i := range recs {
			clock += 0.5
			recs[i].Ts = clock
		}
		s.handle(msg)
	}
	for rec.Metrics().Evicted < 2*rec.Metrics().Resident+subs {
		message()
	}
	const runs = 20
	before, retained := reports, rec.Metrics().Retained
	if allocs := testing.AllocsPerRun(runs, message); allocs != 0 {
		t.Errorf("a message closing %d sessions allocates %v objects, want 0", subs, allocs)
	}
	if got, want := reports-before, (runs+1)*subs; got != want {
		t.Errorf("%d sessions reported, want %d", got, want)
	}
	if got, want := rec.Metrics().Retained-retained, int64((runs+1)*subs); got != want {
		t.Errorf("%d sessions retained, want every one of %d", got, want)
	}
	if got := qm.Snapshot().Labels.PredsEvicted; got < int64(reports) {
		t.Errorf("%d pending predictions evicted, want every one of %d tracked sessions to have replaced one", got, reports)
	}
	ex := rec.Exemplars()["eu-west/phone/-"]
	if len(ex) == 0 {
		t.Fatal("no retained session under the interner's cohort label")
	}
	sess := rec.Snapshot().Retained[0]
	if got := rec.Get(sess.Subscriber, sess.Start); got == nil || got.Cohort != "eu-west/phone/-" || got.Chunks != chunks {
		t.Errorf("retained session drills down as %+v", got)
	}
}

// TestAssessDiscardsFragmentsBeforeCopying: a closed fragment under
// MinChunks is discarded before featurization takes a buffer to copy
// it into, so the chunk-buffer pool gives out nothing for a batch of
// them — buffers warm in the pool, every row marked, stay unwritten —
// and takes back only the fragments' own buffers: draining it returns
// exactly the warm ones and those. Each fragment is still counted by
// the flight recorder, and none is reported.
func TestAssessDiscardsFragmentsBeforeCopying(t *testing.T) {
	rec := flight.New(flight.Config{Shards: 1})
	cfg := Config{Shards: 1, MinChunks: 6, SweepEverySec: -1, Flight: rec}.WithDefaults()
	s := newShard(0, nil, cfg, nil, newInterner(1))

	mark := features.ChunkObs{Time: 1e9, SizeKB: 1e9, DurationSec: 1e9, RTTMin: 1e9}
	pooled := make(map[*features.ChunkObs]bool)
	var warm [][]features.ChunkObs
	for i := 0; i < 4; i++ {
		b := make([]features.ChunkObs, 8)
		for j := range b {
			b[j] = mark
		}
		warm = append(warm, b)
		pooled[&b[0]] = true
		s.tracker.Recycle(b)
	}
	var closed []sessionizer.ColClosed
	for n := 0; n < cfg.MinChunks; n++ {
		c := sessionizer.ColClosed{Sub: 1, Start: float64(n), End: float64(n) + 1, Entries: n + 1}
		if n > 0 {
			c.Chunks = make([]features.ChunkObs, n, 8)
			for j := range c.Chunks {
				c.Chunks[j] = features.ChunkObs{Time: float64(j), SizeKB: 300, DurationSec: 0.5}
			}
			pooled[&c.Chunks[0]] = true
		}
		closed = append(closed, c)
	}

	if out := s.assess(closed, true); len(out) != 0 {
		t.Fatalf("%d fragments under MinChunks produced %d reports", len(closed), len(out))
	}
	if got := rec.Metrics().Recorded; got != int64(len(closed)) {
		t.Errorf("flight recorder counted %d sessions, want the %d discarded fragments", got, len(closed))
	}
	for _, b := range warm {
		for j := range b {
			if b[j] != mark {
				t.Fatalf("a pooled buffer was written (row %d: %+v): a fragment was copied before it was discarded", j, b[j])
			}
		}
	}
	for range len(pooled) {
		b := s.tracker.TakeChunks(1)
		p := &b[:1][0]
		if !pooled[p] {
			t.Fatal("the pool held a buffer that is neither a warm one nor a fragment's")
		}
		delete(pooled, p)
	}
}

// BenchmarkScatter times the seam's one loop over a clean 256-rec frame
// on two shards, written into its slab as a door writes it: ns/op ÷ 256
// is the scatter's cost per entry, admission rule included (CHANGES.md
// has its readings).
func BenchmarkScatter(b *testing.B) {
	slab := &recSlab{recs: make([]sessionizer.Rec, 256), shardOf: make([]uint32, 256)}
	for i := range slab.recs {
		slab.recs[i] = sessionizer.Rec{Sub: uint32(i%37 + 1), Kind: weblog.HostMedia, Ts: float64(i), Dur: 0.5, KB: 300, RTTMin: 20, RTTAvg: 30, RTTMax: 50, BDP: 90, BIFAvg: 40, BIFMax: 80}
		slab.shardOf[i] = uint32(i % 37 % 2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slab.scatter(2)
	}
}

// BenchmarkShardHandleWide times the shard's per-entry loop — touch,
// push, lifecycle trace — over a flow table far beyond cache, the shape
// of the benchmark's wide_open workload: 100k subscribers mid-session,
// visited in subscriber order so no two consecutive recs share a flow,
// in 128-rec messages (a 256-entry frame's share of one of two shards).
// The shard is traced, as the server runs it, has no models, and
// MinChunks is out of reach, so the one pass in wideTicks that opens a
// fresh session (a watch page, closing the previous one) discards what
// it closes before the forests. ns/entry is the loop's cost per rec.
func BenchmarkShardHandleWide(b *testing.B) {
	const batch, perPass, wideTicks = 128, 782, 16
	const subs = batch * perPass // 100,096
	in := newInterner(1)
	entries := make([]weblog.Entry, subs)
	for j := range entries {
		entries[j].Subscriber = fmt.Sprintf("wide%07d", j)
	}
	var d recSlab
	in.digest(&d, entries)
	// one pass of watch pages, one of media chunks: a subscriber's recs
	// share one timestamp, so no pass idles a session out
	pageRecs, mediaRecs := make([]sessionizer.Rec, subs), make([]sessionizer.Rec, subs)
	for j := range mediaRecs {
		ts := float64(j) * 10 / subs
		pageRecs[j] = sessionizer.Rec{Sub: d.recs[j].Sub, Kind: weblog.HostWatchPage, Ts: ts, Dur: 0.1, KB: 40}
		mediaRecs[j] = sessionizer.Rec{Sub: d.recs[j].Sub, Kind: weblog.HostMedia, Ts: ts, Dur: 0.5, KB: 300,
			RTTMin: 20, RTTAvg: 30, RTTMax: 50, BDP: 90, BIFAvg: 40, BIFMax: 80, Loss: 0.1, Retrans: 0.2}
	}
	cfg := Config{Shards: 1, MinChunks: 1 << 30, SweepEverySec: -1, Obs: obs.NewObserver(1, 0)}.WithDefaults()
	s := newShard(0, nil, cfg, nil, in)
	shares := func(recs []sessionizer.Rec) []message {
		msgs := make([]message, perPass)
		for m := range msgs {
			msgs[m] = share(recs[m*batch : (m+1)*batch])
		}
		return msgs
	}
	pages, media := shares(pageRecs), shares(mediaRecs)
	pass := func(msgs []message, from, to int) {
		for m := from; m < to; m++ {
			s.handle(msgs[m])
		}
	}
	pass(pages, 0, perPass) // every flow open before the clock starts
	pass(media, 0, perPass)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		msgs := media
		if n/perPass%wideTicks == 0 {
			msgs = pages
		}
		m := n % perPass
		pass(msgs, m, m+1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/entry")
	if s.tracker.Open() != subs {
		b.Fatalf("%d flows open, want %d", s.tracker.Open(), subs)
	}
}
