package engine

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
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
	var first digested
	in.digest(&first, []weblog.Entry{{Subscriber: "sub-a"}})
	sub := [1]uint32{first.recs[0].Sub}

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
// resolved recs — two of them rejects, one of each reason — scattered
// into a slab and pushed through both shards' loops allocates nothing
// once the slab and the flow buffers have grown, and the caller's slices
// come back as they went in. The shards are driven on this goroutine,
// views in hand, so the count is exact; what submit adds is a pool Get
// and two channel sends.
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
	recs[100].Dur, recs[200].KB = math.NaN(), -1
	before := append([]sessionizer.Rec(nil), recs...)
	b := &recSlab{}
	frame := func() {
		if rejected := b.scatter(recs, shardOf, nsh); rejected != [rejectReasons]uint32{rejectNegative: 1, rejectNonFinite: 1} {
			t.Fatalf("scatter rejected %v, want one rec of each reason", rejected)
		}
		refs := b.pending.Load() - 1 // the submit loop's own
		for i, s := range shards {
			if len(b.per[i]) > 0 {
				s.handle(message{recs: b.per[i]})
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
		if math.Float64bits(recs[i].Dur) != math.Float64bits(before[i].Dur) || recs[i].KB != before[i].KB || recs[i].Sub != before[i].Sub {
			t.Fatalf("scatter wrote to the caller's rec %d: %+v", i, recs[i])
		}
	}
	if shards[0].events.Load() == 0 || shards[1].events.Load() == 0 {
		t.Error("fixture routes every subscriber to one shard")
	}
}

// TestFeedRecsReportsDone: the completion callback of the fused door
// runs exactly once per batch — after every shard has processed its
// share, or at once when the engine takes none of the batch (empty,
// every rec rejected, or fed after Drain).
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
	bad := append([]sessionizer.Rec(nil), recs...)
	for i := range bad {
		bad[i].Ts = math.Inf(1)
	}
	e.FeedRecs(bad, shardOf, done)
	e.Drain()
	e.FeedRecs(recs, shardOf, done)
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

// TestDigestSteadyStateZeroAlloc pins the Entry doors' front half the
// way TestScatterSteadyStateZeroAlloc pins the wire door's: a warm
// 256-entry batch — every subscriber and every region/device/cap triple
// already interned — digested and scattered into a slab allocates
// nothing: the lookups build no strings, the scratch and the slab are
// reused, and publish has nothing new to store. Nor does the wire
// door's lookup, Find, of a warm name.
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
	b, d := &recSlab{}, &digested{}
	batch := func() {
		in.digest(d, entries)
		if b.scatter(d.recs, d.shardOf, nsh); b.pending.Load() != nsh+1 {
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
	warm := []byte("sub-36")
	if allocs := testing.AllocsPerRun(50, func() {
		if ref, ok := in.find(warm); !ok || ref.Name != "sub-36" {
			t.Fatalf("find(%q) = %+v, %v", warm, ref, ok)
		}
	}); allocs != 0 {
		t.Errorf("find of a warm name allocates %v times, want 0", allocs)
	}
	if got := len(in.names) - 1; got != 37 {
		t.Errorf("%d subscribers interned, want 37", got)
	}
	if len(in.keys) != 1+15 {
		t.Errorf("%d cohort keys, want 15", len(in.keys)-1)
	}
	for i, r := range d.recs {
		if r.Sub == 0 || r.Cohort == 0 || r.Kind != weblog.HostMedia || r.KB != 300 {
			t.Fatalf("rec %d digested as %+v", i, r)
		}
	}
}

// TestDoorsInternAlike: the two doors are adapters onto one interning
// routine, so an identity gets the same ID, home shard and cohort ID
// whichever door saw it first — offered through Intern and then Feed,
// and in the other order on a fresh engine — and an all-empty triple is
// cohort 0 through both. IDs go out in first-sight order either way.
func TestDoorsInternAlike(t *testing.T) {
	const nsh = 4
	subs := []string{"sub-a", "sub-b", "sub-c", "sub-d", "sub-e", "sub-f", "sub-g"}
	triples := [][3]string{{"eu-west", "phone", "10M"}, {"", "", ""}, {"eu-west", "", ""}, {"", "tv", ""}, {"us-east", "tv", "50M"}}
	var entries []weblog.Entry
	var names [][]byte
	var wireTriples [][3][]byte
	for i, s := range subs {
		tr := triples[i%len(triples)]
		entries = append(entries, weblog.Entry{Timestamp: float64(i), Subscriber: s, Region: tr[0], Device: tr[1], Cap: tr[2]})
		names = append(names, []byte(s))
		wireTriples = append(wireTriples, [3][]byte{[]byte(tr[0]), []byte(tr[1]), []byte(tr[2])})
	}
	type identity struct {
		sub    struct{ id, shard uint32 }
		cohort uint32
	}
	// viaWire and viaEntries offer everything through one door and read
	// back what each entry's identities resolved to
	viaWire := func(e *Engine) []identity {
		refs, ids := make([]sessionizer.SubRef, len(names)), make([]uint32, len(names))
		e.Intern(names, refs, wireTriples, ids)
		out := make([]identity, len(names))
		for i, ref := range refs {
			if ref.Name != subs[i] {
				t.Fatalf("Intern resolved %q as %q", subs[i], ref.Name)
			}
			out[i] = identity{cohort: ids[i]}
			out[i].sub.id, out[i].sub.shard = ref.ID, ref.Shard
		}
		return out
	}
	viaEntries := func(e *Engine) []identity {
		e.Feed(entries)
		in := e.interner
		in.mu.Lock()
		defer in.mu.Unlock()
		out := make([]identity, len(entries))
		for i, en := range entries {
			ref, _ := in.find([]byte(en.Subscriber))
			out[i] = identity{cohort: in.cohorts[cohort.Key{Region: en.Region, Device: en.Device, Cap: en.Cap}]}
			out[i].sub.id, out[i].sub.shard = ref.ID, ref.Shard
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
			} else if !empty && e.interner.cohortKey(id.cohort) != (cohort.Key{Region: tr[0], Device: tr[1], Cap: tr[2]}) {
				t.Errorf("%s: cohort %d resolves to %+v, want %q", order, id.cohort, e.interner.cohortKey(id.cohort), tr)
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
	check("Intern then Feed", w, viaEntries(e), e)
	e.Drain()

	e = New(nil, cfg, nil)
	f := viaEntries(e)
	check("Feed then Intern", f, viaWire(e), e)
	e.Drain()
	for i := range w {
		if w[i] != f[i] {
			t.Errorf("%q is %+v wire-first, %+v entry-first", subs[i], w[i], f[i])
		}
	}
}

// TestInternAllocatesPerBatchNotPerName pins first sight through both
// doors: a batch of 256 never-seen subscribers and 8 never-seen cohorts
// costs the heap a handful of objects — the published view, a fifth of
// a name block, a step of the id → string tables now and then — not one
// per name and four per cohort. The subscriber index and the cohort map
// are sized ahead, so the count is first sight's own and the same under
// every toolchain: the index doubles once per doubling of the
// subscribers, and what a growing Go map adds is the runtime's business
// (four objects per table split, a split per ≈450 inserts, since Go
// 1.24; overflow buckets before). Every stored label equals what
// cohort.Key.String renders.
func TestInternAllocatesPerBatchNotPerName(t *testing.T) {
	const names, triples, maxObjects = 256, 8, 2
	batch := 0
	fresh := func() ([][]byte, [][3][]byte) {
		batch++
		subs := make([][]byte, 0, 2*names)
		for i := 0; i < names; i++ {
			b := []byte(fmt.Sprintf("sub-%d-%d", batch, i))
			subs = append(subs, b, b) // a frame repeats what its caches missed
		}
		cohorts := make([][3][]byte, triples)
		for i := range cohorts {
			cohorts[i] = [3][]byte{[]byte(fmt.Sprintf("region-%d", batch)), []byte(fmt.Sprintf("dev-%d", i)), nil}
		}
		return subs, cohorts
	}
	// AllocsPerRun calls f runs+1 times; every call gets its own batch.
	// The first batches go in unmeasured: young tables double often
	const warm, runs = 16, 64

	in := newInterner(2)
	in.slots = make([]atomic.Uint64, 1<<17) // load ½ at 65,536 names; the test interns 37,376
	in.cohorts = make(map[cohort.Key]uint32, 4*(warm+2*(runs+1))*triples)
	var subs [][][]byte
	var cohorts [][][3][]byte
	for i := 0; i <= warm+runs; i++ {
		s, c := fresh()
		subs, cohorts = append(subs, s), append(cohorts, c)
	}
	refs, ids := make([]sessionizer.SubRef, 2*names), make([]uint32, triples)
	k := 0
	for ; k < warm; k++ {
		in.intern(subs[k], refs, cohorts[k], ids)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		in.intern(subs[k], refs, cohorts[k], ids)
		k++
	}); allocs > maxObjects {
		t.Errorf("Intern of %d new names and %d new cohorts allocates %v objects, want ≤ %d", names, triples, allocs, maxObjects)
	}
	if got := len(in.names) - 1; got != (warm+runs+1)*names {
		t.Errorf("%d subscribers interned, want %d", got, (warm+runs+1)*names)
	}
	for i, ref := range refs {
		if want := string(subs[warm+runs][i]); ref.Name != want || in.name(ref.ID) != want {
			t.Fatalf("ref %d resolved %q as %q (view: %q)", i, want, ref.Name, in.name(ref.ID))
		}
	}

	entries := make([][]weblog.Entry, runs+1)
	for i := range entries {
		s, c := fresh()
		for j, b := range s {
			tr := c[j%triples]
			entries[i] = append(entries[i], weblog.Entry{Subscriber: string(b), Region: string(tr[0]), Device: string(tr[1]), Cap: string(tr[2])})
		}
	}
	scratch := &digested{}
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
	for _, tr := range [][3]string{{"eu", "", ""}, {"", "tv", ""}, {"", "", "10M"}, {"a/b", "-", ""}} {
		id := lookupCohort(in, tr[0], tr[1], tr[2])
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
	refs, cohorts := make([]sessionizer.SubRef, subs), make([]uint32, 1)
	in.intern(names, refs, [][3][]byte{{[]byte("eu-west"), []byte("phone"), nil}}, cohorts)

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
		recs = append(recs, sessionizer.Rec{Sub: ref.ID, Cohort: cohorts[0], Kind: weblog.HostWatchPage})
		for c := 0; c < chunks; c++ {
			recs = append(recs, sessionizer.Rec{
				Sub: ref.ID, Cohort: cohorts[0], Kind: weblog.HostMedia,
				Dur: 0.4 + 0.01*float64(c%7), KB: 300 + 40*float64(c%5),
				RTTMin: 20, RTTAvg: 30, RTTMax: 50 + float64(c%3), BDP: 90, BIFAvg: 40, BIFMax: 80,
			})
		}
	}
	clock := 0.0
	message := func() {
		for i := range recs {
			clock += 0.5
			recs[i].Ts = clock
		}
		s.handle(message{recs: recs})
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
	ex := rec.ExemplarIDs("eu-west/phone/-")
	if len(ex) == 0 {
		t.Fatal("no retained session under the interner's cohort label")
	}
	sess := rec.Snapshot().Retained[0]
	if got := rec.Get(sess.Subscriber, sess.Start); got == nil || got.Cohort != "eu-west/phone/-" || got.Chunks != chunks {
		t.Errorf("retained session drills down as %+v", got)
	}
}

// BenchmarkScatter times the seam's one loop over a clean 256-rec frame
// on two shards: ns/op ÷ 256 is the scatter's cost per entry, admission
// rule included (CHANGES.md, PR 22, has it beside the parent's).
func BenchmarkScatter(b *testing.B) {
	recs, shardOf := make([]sessionizer.Rec, 256), make([]uint32, 256)
	for i := range recs {
		recs[i] = sessionizer.Rec{Sub: uint32(i%37 + 1), Kind: weblog.HostMedia, Ts: float64(i), Dur: 0.5, KB: 300, RTTMin: 20, RTTAvg: 30, RTTMax: 50, BDP: 90, BIFAvg: 40, BIFMax: 80}
		shardOf[i] = uint32(i % 37 % 2)
	}
	slab := &recSlab{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slab.scatter(recs, shardOf, 2)
	}
}
