package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

// stubSink is a map-backed RecSink: IDs from 1 in first-seen order,
// shard = id mod shards. FeedRecs drops the batch and reports it done.
type stubSink struct {
	shards  uint32
	subs    map[string]sessionizer.SubRef
	names   []string // names[id-1]
	cohorts map[[3]string]uint32
	keys    [][3]string // keys[id-1]
	interns int         // Intern calls
}

func newStubSink(shards int) *stubSink {
	return &stubSink{
		shards:  uint32(shards),
		subs:    map[string]sessionizer.SubRef{},
		cohorts: map[[3]string]uint32{},
	}
}

func (s *stubSink) Find(sub []byte) (sessionizer.SubRef, bool) {
	ref, ok := s.subs[string(sub)]
	return ref, ok
}

func (s *stubSink) Intern(subs [][]byte, refs []sessionizer.SubRef, cohorts [][3][]byte, ids []uint32) {
	s.interns++
	for i, b := range subs {
		ref, ok := s.subs[string(b)]
		if !ok {
			id := uint32(len(s.names) + 1)
			ref = sessionizer.SubRef{Name: string(b), ID: id, Shard: id % s.shards}
			s.subs[ref.Name] = ref
			s.names = append(s.names, ref.Name)
		}
		refs[i] = ref
	}
	for i, c := range cohorts {
		k := [3]string{string(c[0]), string(c[1]), string(c[2])}
		if k == ([3]string{}) {
			ids[i] = 0
			continue
		}
		id, ok := s.cohorts[k]
		if !ok {
			s.keys = append(s.keys, k)
			id = uint32(len(s.keys))
			s.cohorts[k] = id
		}
		ids[i] = id
	}
}

func (s *stubSink) FeedRecs(_ []sessionizer.Rec, _ []uint32, done func()) {
	if done != nil {
		done()
	}
}

// wireClass names the protocol error err wraps (nil for nil or for an
// error of no class).
func wireClass(err error) error {
	for _, e := range []error{ErrMagic, ErrVersion, ErrTruncated, ErrOversize, ErrCRC, ErrRecord} {
		if errors.Is(err, e) {
			return e
		}
	}
	return nil
}

// sameRecords requires the rec emitter's view of a frame to be the
// entry emitter's, field for field: the subscriber and cohort the IDs
// stand for, the routed shard, the host class, KB, and every float bit
// for bit; labels equal outright.
func sameRecords(sink *stubSink, entries []weblog.Entry, labels []qualitymon.Label,
	recs []sessionizer.Rec, shardOf []uint32, rlabels []qualitymon.Label) error {
	if len(recs) != len(entries) || len(shardOf) != len(entries) || len(rlabels) != len(labels) {
		return fmt.Errorf("%d recs, %d shards, %d labels for %d entries, %d labels",
			len(recs), len(shardOf), len(rlabels), len(entries), len(labels))
	}
	for i := range entries {
		e, r := &entries[i], &recs[i]
		if r.Sub == 0 || int(r.Sub) > len(sink.names) || sink.names[r.Sub-1] != e.Subscriber {
			return fmt.Errorf("rec %d: sub id %d for %q", i, r.Sub, e.Subscriber)
		}
		if shardOf[i] != sink.subs[e.Subscriber].Shard {
			return fmt.Errorf("rec %d: routed to shard %d", i, shardOf[i])
		}
		var key [3]string
		if r.Cohort != 0 {
			key = sink.keys[r.Cohort-1]
		}
		if key != [3]string{e.Region, e.Device, e.Cap} {
			return fmt.Errorf("rec %d: cohort %v for %s/%s/%s", i, key, e.Region, e.Device, e.Cap)
		}
		if r.Kind != weblog.ClassifyHost(e.Host) {
			return fmt.Errorf("rec %d: host %q classed %d", i, e.Host, r.Kind)
		}
		got := [...]float64{r.Ts, r.Dur, r.KB, r.RTTMin, r.RTTAvg, r.RTTMax, r.BDP, r.BIFAvg, r.BIFMax, r.Loss, r.Retrans}
		want := [...]float64{e.Timestamp, e.TransactionSec, float64(e.Bytes) / 1000, e.RTTMin, e.RTTAvg, e.RTTMax,
			e.BDP, e.BIFAvg, e.BIFMax, e.LossPct, e.RetransPct}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				return fmt.Errorf("rec %d: float %d is %v, want %v", i, k, got[k], want[k])
			}
		}
	}
	for i := range labels {
		if rlabels[i] != labels[i] {
			return fmt.Errorf("label %d: %+v, want %+v", i, rlabels[i], labels[i])
		}
	}
	return nil
}

func TestRecEmitterMatchesEntryEmitter(t *testing.T) {
	wantE, wantL := testEntries(), testLabels()
	wantL = append(wantL, qualitymon.Label{Subscriber: "label-only", End: 1})
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, wantE, wantL); err != nil {
		t.Fatal(err)
	}
	h, payload, err := NewFrameReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	sink := newStubSink(3)
	rd := newRecDecoder(sink, internMax)
	for pass := 0; pass < 2; pass++ { // cold caches, then warm
		recs, shardOf, labels, err := rd.DecodeFrame(h, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRecords(sink, wantE, wantL, recs, shardOf, labels); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	if sink.interns != 1 {
		t.Errorf("%d Intern calls over a cold and a warm pass, want 1", sink.interns)
	}
	// a label alone mints no ID
	if _, ok := sink.subs["label-only"]; ok {
		t.Error("a label record interned its subscriber")
	}
}

// TestDecodeRecsSteadyStateZeroAlloc is TestDecodeFrameSteadyStateZeroAlloc
// for the rec emitter: with the caches warm, a frame of entries and
// labels decodes to recs without allocating — label subscribers
// included, which come back as the engine's strings.
func TestDecodeRecsSteadyStateZeroAlloc(t *testing.T) {
	entries := benchEntries(512)
	labels := make([]qualitymon.Label, 16)
	for i := range labels {
		labels[i] = qualitymon.Label{Subscriber: entries[i].Subscriber, Start: 1, End: 2, AvailableAt: 3}
	}
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, entries, labels); err != nil {
		t.Fatal(err)
	}
	h, payload, err := NewFrameReader(&buf).Next()
	if err != nil || h.Records != len(entries)+len(labels) {
		t.Fatalf("fixture: %d records, %v", h.Records, err)
	}
	rd := newRecDecoder(newStubSink(2), internMax)
	if _, _, _, err := rd.DecodeFrame(h, payload); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, _, err := rd.DecodeFrame(h, payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state decode to recs allocates %.1f times per frame, want 0", avg)
	}
}

var (
	fixOnce sync.Once
	fixFW   *core.Framework
	fixLive *workload.Live
)

// fixtures trains a small framework and generates a labeled live
// stream with cohort metadata, once.
func fixtures(t *testing.T) (*core.Framework, *workload.Live) {
	t.Helper()
	fixOnce.Do(func() {
		clearCfg := workload.DefaultConfig(400)
		clearCfg.Seed = 91
		hasCfg := workload.DefaultConfig(200)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Seed = 92
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 10
		var err error
		fixFW, _, err = core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), tcfg)
		if err != nil {
			panic(err)
		}
		lcfg := workload.DefaultLiveConfig()
		lcfg.Subscribers = 40
		lcfg.SessionsPerSubscriber = 2
		lcfg.Seed = 93
		lcfg.LabelRate = 1
		fixLive = workload.GenerateLive(lcfg)
	})
	return fixFW, fixLive
}

func reportKeys(reps []engine.Report) []string {
	keys := make([]string, len(reps))
	for i, r := range reps {
		keys[i] = fmt.Sprintf("%s|%v|%v|%+v", r.Subscriber, r.Start, r.End, r.Report)
	}
	sort.Strings(keys)
	return keys
}

// sameReports requires the fused door's reports to be, bit for bit and
// in any order, Engine.Feed's, and some to exist.
func sameReports(t *testing.T, fused, feed []engine.Report) {
	t.Helper()
	g, w := reportKeys(fused), reportKeys(feed)
	if len(w) == 0 || len(g) != len(w) {
		t.Fatalf("%d reports through the fused door, %d through Feed", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("report %d diverges:\n fused %s\n  feed %s", i, g[i], w[i])
		}
	}
}

// TestRecCachesResetMidStream lowers the cache bound until the cohort
// cache — the only identity cache a connection keeps — starts over many
// times inside one stream: it holds 4 keys. A reset only costs another
// Intern round trip — the engine hands back the IDs it already
// assigned — so the reports must be, bit for bit, those of the same
// stream through Engine.Feed.
func TestRecCachesResetMidStream(t *testing.T) {
	fw, live := fixtures(t)
	cfg := engine.Config{Shards: 2, SweepEverySec: -1}

	ref := engine.New(fw, cfg, nil)
	var want []engine.Report
	for lo := 0; lo < len(live.Entries); lo += 200 {
		reps, _ := ref.Ingest(live.Entries[lo:min(lo+200, len(live.Entries))])
		want = append(want, reps...)
	}
	want = append(want, ref.Drain()...)

	var mu sync.Mutex
	var got []engine.Report
	eng := engine.New(fw, cfg, func(r engine.Report) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	const bound = 4
	rd := newRecDecoder(eng, bound)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := range live.Entries {
		if err := enc.AppendEntry(&live.Entries[i]); err != nil {
			t.Fatal(err)
		}
		if enc.Pending() == 64 {
			if err := enc.Flush(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Flush(0); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	sent, held, resets := 0, 0, 0
	for {
		h, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs, shardOf, _, err := rd.DecodeFrame(h, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(rd.cohorts) > bound {
			t.Fatalf("the cohort cache holds %d keys past the bound %d", len(rd.cohorts), bound)
		}
		if len(rd.cohorts) < held {
			resets++
		}
		held = len(rd.cohorts)
		eng.FeedRecs(recs, shardOf, nil)
		sent += len(recs)
	}
	got = append(got, eng.Drain()...)
	if sent != len(live.Entries) || resets == 0 {
		t.Fatalf("decoded %d of %d entries over %d cache resets", sent, len(live.Entries), resets)
	}
	sameReports(t, got, want)
}

// TestFusedDoorFailedFrameLeavesEngineUntouched pins all-or-nothing at
// the listener: after a good frame, a CRC-valid frame that introduces
// subscribers and a cohort and whose last record is malformed closes
// the connection and counts one error, as on the Entry door — and the
// engine has seen none of it: no shard took an entry, no ID was minted
// (the next subscriber interned gets the very next ID) and Find misses
// the frame's new subscriber.
func TestFusedDoorFailedFrameLeavesEngineUntouched(t *testing.T) {
	eng := engine.New(nil, engine.Config{Shards: 2, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
	defer eng.Drain()
	s := NewServer(Config{Handler: Handler{Recs: eng}})
	addr := startServer(t, s, "127.0.0.1:0")

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	good := testEntries()
	if err := c.SendEntries(good); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.Sync(); err != nil || ack.Entries != int64(len(good)) {
		t.Fatalf("ack %+v, %v", ack, err)
	}
	events := func() (n int64) {
		for _, sh := range eng.Snapshot() {
			n += sh.Events
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for events() != int64(len(good)) {
		if time.Now().After(deadline) {
			t.Fatalf("shards took %d of %d entries", events(), len(good))
		}
		time.Sleep(time.Millisecond)
	}
	frames := s.Snapshot().Frames
	var before, after [1]sessionizer.SubRef
	eng.Intern([][]byte{[]byte("probe-before")}, before[:], nil, nil)

	fresh := good[1]
	fresh.Subscriber, fresh.Region = "sub-new", "mars"
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, []weblog.Entry{fresh, fresh, good[0]}, nil); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[HeaderLen:]
	payload = payload[:len(payload)-5] // inside the last record's floats
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(rawFrame(3, payload)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Error("connection stayed open after a malformed record")
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.Snapshot().Errors != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("wire errors = %d, want 1", s.Snapshot().Errors)
		}
		time.Sleep(time.Millisecond)
	}
	if snap := s.Snapshot(); snap.Entries != int64(len(good)) || snap.Frames != frames {
		t.Errorf("listener counted %d entries in %d frames, want %d in %d", snap.Entries, snap.Frames, len(good), frames)
	}
	if n := events(); n != int64(len(good)) {
		t.Errorf("shards took %d entries, want %d", n, len(good))
	}
	if ref, ok := eng.Find([]byte("sub-new")); ok {
		t.Errorf("the failed frame's new subscriber resolves to %+v", ref)
	}
	eng.Intern([][]byte{[]byte("probe-after")}, after[:], nil, nil)
	if after[0].ID != before[0].ID+1 {
		t.Errorf("IDs %d..%d were minted by a frame that failed", before[0].ID+1, after[0].ID-1)
	}
}

// TestEmptyCohortSuffixIsNoCohort: the flag bit set over three empty
// strings is "no metadata" on both doors — cohort 0, and cached as such.
func TestEmptyCohortSuffixIsNoCohort(t *testing.T) {
	p := []byte{recEntry, 1, 's', 0, 0, 0, entryCohort, 0, 0} // subscriber "s"; host, uri, ip empty; port, size 0
	p = append(p, make([]byte, 8*entryFloats)...)
	p = append(p, 0, 0, 0) // region, device, cap empty
	h := Header{Records: 1, Len: len(p), CRC: crc32.ChecksumIEEE(p)}
	entries, _, err := NewDecoder().DecodeFrame(h, p)
	if err != nil {
		t.Fatal(err)
	}
	sink := newStubSink(1)
	rd := newRecDecoder(sink, internMax)
	for pass := 0; pass < 2; pass++ {
		recs, shardOf, _, err := rd.DecodeFrame(h, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRecords(sink, entries, nil, recs, shardOf, nil); err != nil {
			t.Fatal(err)
		}
		if recs[0].Cohort != 0 || len(sink.keys) != 0 {
			t.Errorf("empty triple became cohort %d", recs[0].Cohort)
		}
	}
	if sink.interns != 1 {
		t.Errorf("%d Intern calls, want 1: the empty triple's ID 0 was not cached", sink.interns)
	}
}

// heldSink is a stubSink that keeps every batch "in the engine" until
// the test lets it go.
type heldSink struct {
	*stubSink
	mu   sync.Mutex
	held []func()
	fed  chan struct{} // one token per FeedRecs call
}

func (h *heldSink) FeedRecs(recs []sessionizer.Rec, shardOf []uint32, done func()) {
	h.mu.Lock()
	h.held = append(h.held, done)
	h.mu.Unlock()
	h.fed <- struct{}{}
}

func (h *heldSink) finishOne() {
	h.mu.Lock()
	done := h.held[0]
	h.held = h.held[1:]
	h.mu.Unlock()
	done()
}

// TestFeedWindowBoundsFramesInFlight: a fused-door connection hands the
// engine at most feedWindow frames it has not finished; the reader then
// waits, takes one more frame for every frame the engine reports done,
// and delivers everything in the end.
func TestFeedWindowBoundsFramesInFlight(t *testing.T) {
	const frames = feedWindow + 8
	sink := &heldSink{stubSink: newStubSink(2), fed: make(chan struct{}, frames)}
	s := NewServer(Config{Handler: Handler{Recs: sink}})
	addr := startServer(t, s, "127.0.0.1:0")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := testEntries()[0]
	for i := 0; i < frames; i++ {
		if err := c.AppendEntry(&e); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	took := func(want int, wait time.Duration) int {
		n := 0
		for n < want {
			select {
			case <-sink.fed:
				n++
			case <-time.After(wait):
				return n
			}
		}
		return n
	}
	if n := took(feedWindow, 5*time.Second); n != feedWindow {
		t.Fatalf("engine was handed %d frames, want the window's %d", n, feedWindow)
	}
	if n := took(1, 50*time.Millisecond); n != 0 {
		t.Fatalf("a frame past the window of %d reached the engine with none finished", feedWindow)
	}
	for i := feedWindow; i < frames; i++ {
		sink.finishOne()
		if n := took(1, 5*time.Second); n != 1 {
			t.Fatalf("frame %d did not follow a finished one", i)
		}
	}
	for range sink.held {
		sink.finishOne()
	}
	if ack, err := c.Sync(); err != nil || ack.Entries != frames {
		t.Fatalf("ack %+v, %v; want %d entries", ack, err, frames)
	}
}

// TestNonFiniteCarriedByCodecRefusedByEngine is the door-level statement
// of who judges a float. The codec carries every bit — ±Inf and NaN
// payloads included, through both emitters — because a transport that
// edits values hides the sender's bug; the engine's admission rule then
// refuses the record through either door: rejected +1, shard events +0.
func TestNonFiniteCarriedByCodecRefusedByEngine(t *testing.T) {
	e := weblog.Entry{Subscriber: "sub-a", RTTMin: math.Inf(1), RTTMax: math.Inf(-1), BDP: math.NaN()}
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, []weblog.Entry{e}, nil); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	got, _ := decodeStream(t, &buf)
	if !math.IsInf(got[0].RTTMin, 1) || !math.IsInf(got[0].RTTMax, -1) || !math.IsNaN(got[0].BDP) {
		t.Errorf("non-finite floats mangled: %+v", got[0])
	}

	eng := engine.New(nil, engine.Config{Shards: 2, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
	defer eng.Drain()
	h, err := parseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[HeaderLen:]
	nan := math.Float64frombits(0x7ff8dead0000beef)
	binary.LittleEndian.PutUint64(payload[len(payload)-8:], math.Float64bits(nan)) // retrans_pct
	h.CRC = crc32.ChecksumIEEE(payload)
	recs, shardOf, _, err := newRecDecoder(eng, internMax).DecodeFrame(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if !math.IsInf(r.RTTMin, 1) || !math.IsInf(r.RTTMax, -1) ||
		math.Float64bits(r.BDP) != math.Float64bits(e.BDP) ||
		math.Float64bits(r.Retrans) != math.Float64bits(nan) {
		t.Errorf("rec emitter mangled non-finite floats: %+v", r)
	}

	done := make(chan struct{})
	eng.FeedRecs(recs, shardOf, func() { close(done) })
	<-done
	eng.Feed(got)
	if rej := eng.Rejected(); rej != [2]int64{0, 2} {
		t.Errorf("rejected %v, want the record refused once through each door as non_finite", rej)
	}
	for _, sh := range eng.Snapshot() {
		if sh.Events != 0 {
			t.Errorf("shard %d took %d entries of a stream with none admissible", sh.Shard, sh.Events)
		}
	}
}

// firstSightSink is the engine behind a RecSink that remembers the
// Intern call each subscriber name was first offered in, and counts the
// names offered again by a later call.
type firstSightSink struct {
	*engine.Engine
	calls   int
	first   map[string]int
	reasked int
}

func (s *firstSightSink) Intern(subs [][]byte, refs []sessionizer.SubRef, cohorts [][3][]byte, ids []uint32) {
	s.calls++
	for _, b := range subs {
		if call, ok := s.first[string(b)]; !ok {
			s.first[string(b)] = s.calls
		} else if call != s.calls {
			s.reasked++
		}
	}
	s.Engine.Intern(subs, refs, cohorts, ids)
}

// TestOneConnectionManySubscribers is the regression test of the cliff
// the per-connection subscriber cache had at 2¹⁶ keys: three times that
// many subscribers over one listener connection, each seen again a full
// pass later. A subscriber reaches Intern in the frame that introduces
// it and never again (the cache, dropped wholesale when full, re-asked
// for every one of them on the second pass), and the reports — every
// 64th subscriber plays enough chunks for one — are bit for bit those of
// Engine.Feed over the same entries.
func TestOneConnectionManySubscribers(t *testing.T) {
	fw, _ := fixtures(t)
	const subscribers, passes, batch = 3 << 16, 2, 4096
	cfg := engine.Config{Shards: 2, IdleGapSec: 1e6, SweepEverySec: -1}
	var mu sync.Mutex
	collect := func(into *[]engine.Report) func(engine.Report) {
		return func(r engine.Report) {
			mu.Lock()
			*into = append(*into, r)
			mu.Unlock()
		}
	}
	var want, got []engine.Report
	ref := engine.New(fw, cfg, collect(&want))
	eng := engine.New(fw, cfg, collect(&got))
	sink := &firstSightSink{Engine: eng, first: make(map[string]int, subscribers)}
	addr := startServer(t, NewServer(Config{Handler: Handler{Recs: sink}}), "127.0.0.1:0")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	names := make([]string, subscribers)
	for i := range names {
		names[i] = fmt.Sprintf("crowd-%06d", i)
	}
	sent, clock := int64(0), 0.0
	entries := make([]weblog.Entry, 0, batch+3)
	for pass := 0; pass < passes; pass++ {
		for i, name := range names {
			chunks := 1
			if i%64 == 0 {
				chunks = 3
			}
			for k := 0; k < chunks; k++ {
				clock += 0.001
				entries = append(entries, weblog.Entry{
					Timestamp: clock, Subscriber: name, Host: "r1---sn-aaaa.googlevideo.com", Encrypted: true,
					Bytes: 300_000 + 1000*(i%97), TransactionSec: 0.4 + 0.01*float64(k), RTTMin: 0.02, RTTAvg: 0.03, RTTMax: 0.05,
				})
			}
			if len(entries) >= batch || i == len(names)-1 {
				ref.Feed(entries)
				if err := c.SendEntries(entries); err != nil {
					t.Fatal(err)
				}
				sent += int64(len(entries))
				entries = entries[:0]
			}
		}
	}
	if ack, err := c.Sync(); err != nil || ack.Entries != sent {
		t.Fatalf("ack %+v, %v; sent %d entries", ack, err, sent)
	}
	want = append(want, ref.Drain()...)
	got = append(got, eng.Drain()...)

	if len(sink.first) != subscribers || sink.reasked != 0 {
		t.Errorf("Intern was offered %d names, %d of them again in a later frame; want %d, each in one frame only",
			len(sink.first), sink.reasked, subscribers)
	}
	if n, _, _ := eng.InternerStats(); n != subscribers {
		t.Errorf("%d subscribers interned, want %d", n, subscribers)
	}
	if len(want) != subscribers/64 {
		t.Errorf("%d reports through Feed, want %d", len(want), subscribers/64)
	}
	sameReports(t, got, want)
}

// TestLabelResolvesAcrossConnections: a label's subscriber resolves
// through the engine, not through what its own connection has carried —
// a connection that sees only the label of a subscriber another one
// introduced hands the label on under the engine's string, allocating
// nothing (each such label used to get a string of its own).
func TestLabelResolvesAcrossConnections(t *testing.T) {
	eng := engine.New(nil, engine.Config{Shards: 2, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
	defer eng.Drain()
	frame := func(entries []weblog.Entry, labels []qualitymon.Label) (Header, []byte) {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, entries, labels); err != nil {
			t.Fatal(err)
		}
		h, payload, err := NewFrameReader(&buf).Next()
		if err != nil {
			t.Fatal(err)
		}
		return h, append([]byte(nil), payload...)
	}
	h, payload := frame([]weblog.Entry{{Subscriber: "sub-elsewhere", Timestamp: 1}}, nil)
	if _, _, _, err := newRecDecoder(eng, internMax).DecodeFrame(h, payload); err != nil {
		t.Fatal(err)
	}

	other := newRecDecoder(eng, internMax)
	h, payload = frame(nil, []qualitymon.Label{{Subscriber: "sub-elsewhere", End: 2}, {Subscriber: "sub-nowhere", End: 2}})
	_, _, labels, err := other.DecodeFrame(h, payload)
	if err != nil || len(labels) != 2 || labels[0].Subscriber != "sub-elsewhere" || labels[1].Subscriber != "sub-nowhere" {
		t.Fatalf("labels %+v, %v", labels, err)
	}
	if _, ok := eng.Find([]byte("sub-nowhere")); ok {
		t.Error("a label record interned its subscriber")
	}
	h, payload = frame(nil, labels[:1])
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := other.DecodeFrame(h, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a label for a subscriber another connection introduced allocates %v times, want 0", allocs)
	}
}
