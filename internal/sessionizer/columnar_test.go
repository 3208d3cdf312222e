package sessionizer

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"vqoe/internal/cohort"
	"vqoe/internal/features"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

// testInterner mirrors the engine front door's identity interning so
// the property test can drive a ColTracker exactly the way the engine
// does: subscriber strings and cohort keys become dense uint32 IDs
// (from 1; 0 = absent) and every entry is pre-digested into a Rec.
type testInterner struct {
	subs  map[string]uint32
	names []string
	cohs  map[cohort.Key]uint32
	keys  []cohort.Key
}

func newTestInterner() *testInterner {
	return &testInterner{
		subs:  make(map[string]uint32),
		names: []string{""},
		cohs:  make(map[cohort.Key]uint32),
		keys:  []cohort.Key{{}},
	}
}

func (n *testInterner) name(id uint32) string { return n.names[id] }

func (n *testInterner) key(id uint32) cohort.Key { return n.keys[id] }

func (n *testInterner) rec(e weblog.Entry) Rec {
	id, ok := n.subs[e.Subscriber]
	if !ok {
		id = uint32(len(n.names))
		n.subs[e.Subscriber] = id
		n.names = append(n.names, e.Subscriber)
	}
	r := Rec{
		Sub:     id,
		Kind:    weblog.ClassifyHost(e.Host),
		Ts:      e.Timestamp,
		Dur:     e.TransactionSec,
		KB:      float64(e.Bytes) / 1000,
		RTTMin:  e.RTTMin,
		RTTAvg:  e.RTTAvg,
		RTTMax:  e.RTTMax,
		BDP:     e.BDP,
		BIFAvg:  e.BIFAvg,
		BIFMax:  e.BIFMax,
		Loss:    e.LossPct,
		Retrans: e.RetransPct,
	}
	if e.Region != "" || e.Device != "" || e.Cap != "" {
		k := cohort.Key{Region: e.Region, Device: e.Device, Cap: e.Cap}
		ck, ok := n.cohs[k]
		if !ok {
			ck = uint32(len(n.keys))
			n.cohs[k] = ck
			n.keys = append(n.keys, k)
		}
		r.Cohort = ck
	}
	return r
}

// refSession is one session of the offline reference: Group run over a
// single subscriber's sub-stream, with the session's entries located
// in the merged live stream (idx, ascending) so its state at any point
// of that stream can be read off.
type refSession struct {
	sub        string
	start, end float64
	idx        []int // positions in the live stream, all service entries
	media      []int // the media-chunk subset of idx
	cohort     cohort.Key
}

// upTo counts how many of the ascending positions are <= i.
func upTo(positions []int, i int) int { return sort.SearchInts(positions, i+1) }

// groupReference runs Group per subscriber over the live stream and
// returns the sessions keyed by the stream position of their first
// entry.
func groupReference(entries []weblog.Entry, cfg Config) map[int]*refSession {
	perSub := map[string][]int{}
	for i, e := range entries {
		perSub[e.Subscriber] = append(perSub[e.Subscriber], i)
	}
	startsAt := map[int]*refSession{}
	for sub, pos := range perSub {
		own := make([]weblog.Entry, len(pos))
		for k, i := range pos {
			own[k] = entries[i]
		}
		for _, s := range Group(own, cfg) {
			r := &refSession{sub: sub, start: s.Start, end: s.End}
			for _, k := range s.Indices {
				r.idx = append(r.idx, pos[k])
				if e := own[k]; r.cohort == (cohort.Key{}) {
					r.cohort = cohort.Key{Region: e.Region, Device: e.Device, Cap: e.Cap}
				}
			}
			for _, k := range s.MediaIndices(own) {
				r.media = append(r.media, pos[k])
			}
			startsAt[r.idx[0]] = r
		}
	}
	return startsAt
}

// sortRefs orders reference sessions the way the tracker orders a
// closed batch: by start time, then subscriber.
func sortRefs(rs []*refSession) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].start != rs[j].start {
			return rs[i].start < rs[j].start
		}
		return rs[i].sub < rs[j].sub
	})
}

// TestColTrackerMatchesTrackerLive is the live path's property test
// against the offline reference: a seeded concurrent live workload
// pushed entry by entry through the interned-ID columnar ColTracker —
// with interleaved AdvanceInto sweeps and open-table snapshots — must
// close, per subscriber, exactly the sessions sessionizer.Group
// reconstructs from that subscriber's entries alone: same order
// (push closes in stream order, sweep and flush batches by start then
// subscriber), same boundaries, entry and chunk counts, first-seen
// cohort, OnOpen calls, and bit-identical feature observations
// (FromEntries over the Group session's entries vs FromChunks over the
// columns). A sweep must close exactly the sessions whose last entry
// is more than IdleGap behind its clock.
func TestColTrackerMatchesTrackerLive(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			live := workload.GenerateLive(workload.LiveConfig{
				Subscribers:           16,
				SessionsPerSubscriber: 2,
				Seed:                  seed,
			})
			cfg := DefaultConfig()
			startsAt := groupReference(live.Entries, cfg)
			in := newTestInterner()
			col := NewColTracker(cfg)
			col.Resolve = in.name

			var wantOpens, gotOpens []string
			col.OnOpen = func(sub uint32, start float64) {
				gotOpens = append(gotOpens, fmt.Sprintf("%s@%.6f", in.name(sub), start))
			}

			open := map[string]*refSession{} // the reference's flow table
			var want []*refSession
			var got []ColClosed
			sweeps, swept := 0, 0
			for i := range live.Entries {
				e := live.Entries[i]
				if r := startsAt[i]; r != nil {
					if prev := open[r.sub]; prev != nil {
						want = append(want, prev)
					}
					open[r.sub] = r
					wantOpens = append(wantOpens, fmt.Sprintf("%s@%.6f", r.sub, r.start))
				}
				rec := in.rec(e)
				if c, ok := col.Push(&rec); ok {
					got = append(got, c)
				}
				if i%257 != 128 {
					continue
				}
				now := e.Timestamp
				var idle []*refSession
				for sub, r := range open {
					lastSeen := live.Entries[r.idx[upTo(r.idx, i)-1]].Timestamp
					if now-lastSeen > cfg.IdleGap {
						idle = append(idle, r)
						delete(open, sub)
					}
				}
				sortRefs(idle)
				want = append(want, idle...)
				sweeps++
				swept += len(idle)
				got = col.AdvanceInto(now, got)
				if col.Open() != len(open) {
					t.Fatalf("open count diverged at entry %d: reference %d columnar %d",
						i, len(open), col.Open())
				}
				ws := make([]OpenSession, 0, len(open))
				for _, r := range open {
					n := upTo(r.idx, i)
					ws = append(ws, OpenSession{
						Subscriber: r.sub,
						Start:      r.start,
						LastSeen:   live.Entries[r.idx[n-1]].Timestamp,
						Entries:    n,
						Chunks:     upTo(r.media, i),
					})
				}
				sort.Slice(ws, func(a, b int) bool {
					if ws[a].Start != ws[b].Start {
						return ws[a].Start < ws[b].Start
					}
					return ws[a].Subscriber < ws[b].Subscriber
				})
				if cs := col.OpenSnapshot(); !reflect.DeepEqual(ws, cs) {
					t.Fatalf("open snapshots diverged at entry %d:\nreference %+v\ncolumnar  %+v", i, ws, cs)
				}
			}
			var rest []*refSession
			for _, r := range open {
				rest = append(rest, r)
			}
			sortRefs(rest)
			want = append(want, rest...)
			got = col.FlushInto(got)
			if sweeps == 0 || swept == 0 {
				t.Fatalf("fixture never exercised eviction: %d sweeps closed %d sessions", sweeps, swept)
			}

			if !reflect.DeepEqual(wantOpens, gotOpens) {
				t.Fatalf("OnOpen streams diverged: reference %d columnar %d",
					len(wantOpens), len(gotOpens))
			}
			if len(want) != len(got) || len(want) != len(startsAt) {
				t.Fatalf("Group found %d sessions, reference walk closed %d, columnar %d",
					len(startsAt), len(want), len(got))
			}
			for i, r := range want {
				c := got[i]
				if in.name(c.Sub) != r.sub {
					t.Fatalf("session %d: subscriber %q vs %q", i, in.name(c.Sub), r.sub)
				}
				if c.Start != r.start || c.End != r.end {
					t.Fatalf("session %d (%s): bounds [%v,%v] vs [%v,%v]",
						i, r.sub, c.Start, c.End, r.start, r.end)
				}
				if c.Entries != len(r.idx) {
					t.Fatalf("session %d (%s): %d entries vs %d", i, r.sub, c.Entries, len(r.idx))
				}
				if len(c.Chunks) != len(r.media) {
					t.Fatalf("session %d (%s): %d chunks vs %d", i, r.sub, len(c.Chunks), len(r.media))
				}
				if k := in.key(c.Cohort); k != r.cohort {
					t.Fatalf("session %d (%s): cohort %v vs %v", i, r.sub, k, r.cohort)
				}
				own := make([]weblog.Entry, len(r.idx))
				for k, pos := range r.idx {
					own[k] = live.Entries[pos]
				}
				ro := features.FromEntries(own)
				co := features.FromChunks(c.Chunks, nil)
				if !reflect.DeepEqual(ro, co) {
					t.Fatalf("session %d (%s): feature observations diverged:\nreference %+v\ncolumnar  %+v",
						i, r.sub, ro, co)
				}
				if !reflect.DeepEqual(features.RepFeatures(ro), features.RepFeatures(co)) ||
					!reflect.DeepEqual(features.StallFeatures(ro), features.StallFeatures(co)) {
					t.Fatalf("session %d (%s): feature vectors diverged", i, r.sub)
				}
			}
		})
	}
}

// TestColTrackerRecycledBuffersStayIdentical re-runs the same trace
// through one long-lived ColTracker twice, recycling every closed
// session's chunk buffer the way the engine shard does, and checks the
// second pass emits bit-identical sessions — proving neither a reused
// page nor a reused buffer leaks observations across sessions. A flow
// that outlives both passes pins the arena's slab, so the second pass
// runs entirely on pages the first one freed.
func TestColTrackerRecycledBuffersStayIdentical(t *testing.T) {
	live := workload.GenerateLive(workload.LiveConfig{
		Subscribers:           8,
		SessionsPerSubscriber: 2,
		Seed:                  99,
	})
	in := newTestInterner()
	cfg := layoutConfig(features.Layout{Fields: benchFields})
	col := NewColTracker(cfg)
	col.Resolve = in.name
	const far = 1e9
	pin := in.rec(weblog.Entry{Subscriber: "pinned", Host: "r1.googlevideo.com", Timestamp: far})
	col.Push(&pin)

	run := func() []ColClosed {
		var out []ColClosed
		for i := range live.Entries {
			r := in.rec(live.Entries[i])
			if c, ok := col.Push(&r); ok {
				out = append(out, c)
			}
		}
		return col.AdvanceInto(far, out) // everything but the pinned flow
	}
	freeze := func(cs []ColClosed) []ColClosed {
		// deep-copy chunks before recycling the live buffers
		out := make([]ColClosed, len(cs))
		for i, c := range cs {
			out[i] = c
			out[i].Chunks = append([]features.ChunkObs(nil), c.Chunks...)
		}
		for _, c := range cs {
			col.Recycle(c.Chunks)
		}
		return out
	}

	first := freeze(run())
	held := col.StoreBytes()
	second := freeze(run())
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("recycled second pass diverged: %d vs %d sessions", len(first), len(second))
	}
	if col.Open() != 1 || held == 0 || col.StoreBytes() != held {
		t.Fatalf("second pass ran on %d store bytes after %d, %d flows left open: it did not reuse the first pass's pages",
			col.StoreBytes(), held, col.Open())
	}
}

// closedBits is a closed session as the bits of every field, chunk
// rows included, so two sessions compare bit for bit.
func closedBits(c ColClosed) []uint64 {
	out := []uint64{uint64(c.Sub), uint64(c.Cohort), math.Float64bits(c.Start), math.Float64bits(c.End),
		uint64(c.Entries), uint64(len(c.Chunks))}
	for _, ch := range c.Chunks {
		for _, f := range fieldsOf(ch) {
			out = append(out, math.Float64bits(f))
		}
	}
	return out
}

// TestPushIntoAppends holds PushInto, the shard's form, to Push over a
// mixed stream (page loads, media, signalling and foreign hosts across
// interleaved subscribers): into a closed slice that starts non-empty it
// appends exactly the session Push returns for the same record, written
// in place, and never disturbs what the slice held before — across the
// appends that fit its capacity and the ones that grow it. A record that
// closes nothing, a foreign-host one among them, hands the slice back
// unchanged: same length, same backing array.
func TestPushIntoAppends(t *testing.T) {
	live := workload.GenerateLive(workload.LiveConfig{
		Subscribers:           8,
		SessionsPerSubscriber: 3,
		Seed:                  7,
	})
	in := newTestInterner()
	var recs []Rec
	for i := range live.Entries {
		r := in.rec(live.Entries[i])
		recs = append(recs, r)
		if i%5 == 0 {
			// a foreign host in the subscriber's own stream, at its time
			recs = append(recs, Rec{Sub: r.Sub, Kind: weblog.HostOther, Ts: r.Ts, Dur: 1, KB: 9})
		}
	}
	cfg := layoutConfig(features.Layout{Fields: benchFields})
	ref, col := NewColTracker(cfg), NewColTracker(cfg)
	ref.Resolve, col.Resolve = in.name, in.name

	// three sentinels with room for one more, so the first close is
	// written into the spare capacity and later ones grow the slice
	closed := make([]ColClosed, 3, 4)
	for i := range closed {
		closed[i] = ColClosed{Sub: 1e6 + uint32(i), Cohort: 7, Start: -1, End: float64(i), Entries: i,
			Chunks: []features.ChunkObs{{Time: float64(i), SizeKB: 1}}}
	}
	var frozen [][]uint64
	for _, c := range closed {
		frozen = append(frozen, closedBits(c))
	}
	var others, quiet, closes int
	for i := range recs {
		r := recs[i]
		want, ok := ref.Push(&r)
		n := len(closed)
		got := col.PushInto(&r, closed)
		if !ok {
			if len(got) != n || cap(got) != cap(closed) || &got[0] != &closed[0] {
				t.Fatalf("rec %d closes nothing, yet PushInto changed the slice: len %d→%d, cap %d→%d",
					i, n, len(got), cap(closed), cap(got))
			}
			if r.Kind == weblog.HostOther {
				others++
			} else {
				quiet++
			}
		} else {
			if len(got) != n+1 {
				t.Fatalf("rec %d closes a session, yet PushInto went %d → %d elements", i, n, len(got))
			}
			w := closedBits(want)
			if !slices.Equal(closedBits(got[n]), w) {
				t.Fatalf("rec %d: PushInto appended %+v, Push returned %+v", i, got[n], want)
			}
			frozen = append(frozen, w)
			closes++
		}
		closed = got
		for j := range closed {
			if !slices.Equal(closedBits(closed[j]), frozen[j]) {
				t.Fatalf("after rec %d element %d reads %+v: PushInto disturbed what the slice held", i, j, closed[j])
			}
		}
	}
	if others == 0 || quiet == 0 || closes < 2 {
		t.Fatalf("stream exercised %d foreign-host, %d quiet and %d closing records", others, quiet, closes)
	}
}
