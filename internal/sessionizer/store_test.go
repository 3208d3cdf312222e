package sessionizer

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vqoe/internal/features"
	"vqoe/internal/stats"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

// benchFields is the projection the benchmark's two models (modelSeed
// 1) derive: the three core fields plus RTT max, BIF avg, packet loss.
const benchFields = features.CoreFields | features.FieldRTTMax | features.FieldBIFAvg | features.FieldLossPct

// benchLayout is the whole layout those models derive, the one an
// engine shard serving them builds its tracker with: they read RTT max
// and packet loss only as a session maximum and BIF avg only as a
// minimum, so all three fold into the flow header and a row is the core
// fields alone.
var benchLayout = features.Layout{Fields: benchFields, Mins: features.FieldBIFAvg, Maxes: features.FieldRTTMax | features.FieldLossPct}

// storeLayouts are the unfolded layouts the store tests run under: the
// three-field minimum, the benchmark's six, all eleven.
var storeLayouts = []features.Layout{{Fields: features.CoreFields}, {Fields: benchFields}, {Fields: features.AllFields}}

// layoutConfig is DefaultConfig with layout l.
func layoutConfig(l features.Layout) Config {
	cfg := DefaultConfig()
	cfg.Layout = l
	return cfg
}

// fieldsOf reads a chunk observation as its eleven fields in FieldSet
// bit order.
func fieldsOf(c features.ChunkObs) [11]float64 {
	return [11]float64{c.Time, c.SizeKB, c.DurationSec, c.RTTMin, c.RTTAvg, c.RTTMax,
		c.BDP, c.BIFAvg, c.BIFMax, c.LossPct, c.RetransPct}
}

// assertProjected holds one closed session of a tracker storing fs
// against the dense tracker's: identity, bounds and counts equal, live
// fields bit for bit, every other field exactly +0.
func assertProjected(t *testing.T, what string, fs features.FieldSet, got, dense ColClosed) {
	t.Helper()
	g, d := got, dense
	g.Chunks, d.Chunks = nil, nil
	if !reflect.DeepEqual(g, d) || len(got.Chunks) != len(dense.Chunks) {
		t.Fatalf("%s: %+v with %d chunks, dense %+v with %d", what, g, len(got.Chunks), d, len(dense.Chunks))
	}
	for i := range got.Chunks {
		gf, df := fieldsOf(got.Chunks[i]), fieldsOf(dense.Chunks[i])
		for b := range gf {
			want := uint64(0)
			if fs&(1<<b) != 0 {
				want = math.Float64bits(df[b])
			}
			if math.Float64bits(gf[b]) != want {
				t.Fatalf("%s chunk %d field %d: %v (bits %x), want bits %x", what, i, b, gf[b], math.Float64bits(gf[b]), want)
			}
		}
	}
}

// TestProjectedStoreMatchesDenseLive: under every field set, a seeded
// live workload pushed with interleaved sweeps and a mid-stream flush
// closes the sessions the dense tracker closes, in the same order, with
// every live field bit-identical and the rest zero. Transport values
// the generator never emits (NaN, ±Inf, −0) are patched in so "bit for
// bit" covers them.
func TestProjectedStoreMatchesDenseLive(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, l := range storeLayouts {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("fields=%#x/seed=%d", l.Fields, seed), func(t *testing.T) {
				live := workload.GenerateLive(workload.LiveConfig{Subscribers: 24, SessionsPerSubscriber: 3, Seed: seed})
				dense, in := newTestTracker(DefaultConfig())
				proj := NewColTracker(layoutConfig(l))
				proj.Resolve = in.name
				var got, want []ColClosed
				for i, e := range live.Entries {
					r := in.rec(e)
					if i%7 == 3 {
						r.RTTMax, r.BIFAvg, r.Retrans = odd[i%4], odd[(i+1)%4], odd[(i+2)%4]
					}
					if c, ok := dense.Push(&r); ok {
						want = append(want, c)
					}
					if c, ok := proj.Push(&r); ok {
						got = append(got, c)
					}
					switch {
					case i%211 == 100:
						want = dense.AdvanceInto(e.Timestamp, want)
						got = proj.AdvanceInto(e.Timestamp, got)
					case i == 2*len(live.Entries)/3:
						want = dense.FlushInto(want)
						got = proj.FlushInto(got)
					}
					if proj.Open() != dense.Open() {
						t.Fatalf("entry %d: %d open, dense %d", i, proj.Open(), dense.Open())
					}
				}
				want = dense.FlushInto(want)
				got = proj.FlushInto(got)
				if len(got) != len(want) || len(got) < 24*3 {
					t.Fatalf("closed %d sessions, dense %d", len(got), len(want))
				}
				for i := range got {
					assertProjected(t, fmt.Sprintf("session %d", i), l.Fields, got[i], want[i])
				}
				if proj.StoreBytes() != 0 || dense.StoreBytes() != 0 {
					t.Errorf("flushed trackers still hold %d and %d store bytes", proj.StoreBytes(), dense.StoreBytes())
				}
			})
		}
	}
}

// seamRec is media chunk j of subscriber sub's session gen, every field
// a distinct value the assertions can recompute.
func seamRec(sub uint32, gen, j int) Rec {
	v := float64(sub)*1e6 + float64(gen)*1e4 + float64(j)*10
	return Rec{
		Sub: sub, Kind: weblog.HostMedia, Ts: float64(gen*1000 + j), Dur: 0.25, KB: v,
		RTTMin: v + 1, RTTAvg: v + 2, RTTMax: v + 3, BDP: v + 4,
		BIFAvg: v + 5, BIFMax: v + 6, Loss: v + 7, Retrans: v + 8,
	}
}

// TestStorePageSeams walks chunk counts across the page seams (0, 1,
// 7, 8, 9, 16, 17, 5×8+3) with the flows' pages interleaved in the
// arena, then closes every session on a watch-page boundary — reopen in
// place — and pushes a rotated set of counts, so each second-generation
// flow chains pages other flows just freed, still holding their rows.
// The closed buffers come out of a pool seeded with a dirty one.
func TestStorePageSeams(t *testing.T) {
	counts := []int{0, 1, 7, 8, 9, 16, 17, 5*pageRows + 3}
	for _, l := range storeLayouts {
		t.Run(fmt.Sprintf("fields=%#x", l.Fields), func(t *testing.T) {
			tr := NewColTracker(Config{IdleGap: 1e9, PageBoundary: true, Layout: l})
			tr.Resolve = func(id uint32) string { return fmt.Sprint(id) }
			check := func(c ColClosed, gen, n int) {
				t.Helper()
				if len(c.Chunks) != n || c.Entries != n+1 || (n == 0) != (c.Chunks == nil) {
					t.Fatalf("sub %d gen %d: %d chunks in %d entries, want %d", c.Sub, gen, len(c.Chunks), c.Entries, n)
				}
				for j := range c.Chunks {
					r := seamRec(c.Sub, gen, j)
					want := [11]float64{r.Ts + r.Dur, r.KB, r.Dur, r.RTTMin, r.RTTAvg, r.RTTMax, r.BDP, r.BIFAvg, r.BIFMax, r.Loss, r.Retrans}
					for b, g := range fieldsOf(c.Chunks[j]) {
						if l.Fields&(1<<b) == 0 {
							want[b] = 0
						}
						if g != want[b] {
							t.Fatalf("sub %d gen %d chunk %d field %d: %v, want %v", c.Sub, gen, j, b, g, want[b])
						}
					}
				}
			}
			page := func(sub uint32, gen int) (ColClosed, bool) {
				return tr.Push(&Rec{Sub: sub, Kind: weblog.HostWatchPage, Ts: float64(gen*1000 - 1)})
			}
			fill := func(gen, shift int) {
				for j := 0; j < counts[len(counts)-1]; j++ { // round-robin: pages interleave
					for s := range counts {
						if j < counts[(s+shift)%len(counts)] {
							r := seamRec(uint32(s+1), gen, j)
							if _, ok := tr.Push(&r); ok {
								t.Fatal("a media chunk closed a session")
							}
						}
					}
				}
			}
			for s := range counts {
				page(uint32(s+1), 1)
			}
			fill(1, 0)
			held := tr.StoreBytes()
			// a pooled buffer comes back holding anything: every field
			// of a closed chunk must be written, the dead ones with zero
			dirty := tr.TakeChunks(64)[:64]
			for i := range dirty {
				dirty[i] = features.ChunkObs{Time: -1, RTTMin: -1, RTTAvg: -1, RTTMax: -1, BDP: -1,
					BIFAvg: -1, BIFMax: -1, LossPct: -1, RetransPct: -1}
			}
			tr.Recycle(dirty)
			for s := range counts {
				c, ok := page(uint32(s+1), 2)
				if !ok {
					t.Fatalf("sub %d: watch page did not close the open session", s+1)
				}
				check(c, 1, counts[s])
				tr.Recycle(c.Chunks)
			}
			fill(2, 3)
			if tr.StoreBytes() != held {
				t.Errorf("second generation grew the arena %d → %d bytes instead of reusing freed pages", held, tr.StoreBytes())
			}
			closed := tr.FlushInto(nil)
			if len(closed) != len(counts) {
				t.Fatalf("flush closed %d sessions, want %d", len(closed), len(counts))
			}
			for _, c := range closed {
				check(c, 2, counts[(int(c.Sub)-1+3)%len(counts)])
			}
		})
	}
}

// TestColFlowIsPointerFree keeps the flow array noscan: no field of
// colFlow may be, or contain, anything the collector follows.
func TestColFlowIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Slice, reflect.Pointer, reflect.Interface, reflect.Map, reflect.Chan,
			reflect.Func, reflect.String, reflect.UnsafePointer:
			t.Errorf("%s is a %s", path, ty.Kind())
		}
	}
	walk("colFlow", reflect.TypeOf(colFlow{}))
}

// TestColFlowIsOneCacheLine: a flow header is exactly 64 B, so no header
// of the flow array straddles two cache lines and a push touches one.
func TestColFlowIsOneCacheLine(t *testing.T) {
	if size := reflect.TypeOf(colFlow{}).Size(); size != 64 {
		t.Errorf("colFlow is %d B, want 64", size)
	}
}

// foldLayouts are the folding layouts the fold tests run under: the
// benchmark models', whose three one-sided folds fill the header, and
// one whose first candidate is read both ways, so that it and a
// one-sided fold fill the header and the last two candidates stay in
// rows. folded is what the header must take.
var foldLayouts = []struct {
	name   string
	layout features.Layout
	folded features.FieldSet
}{
	{"bench", benchLayout, features.FieldRTTMax | features.FieldBIFAvg | features.FieldLossPct},
	{"crowded", features.Layout{Fields: features.AllFields,
		Mins:  features.FieldRTTMin | features.FieldBDP | features.FieldLossPct,
		Maxes: features.FieldRTTMin | features.FieldBIFMax}, features.FieldRTTMin | features.FieldBDP},
}

// assertFolded holds one closed session of a folding tracker against the
// dense tracker's: identity, bounds and counts equal; row fields bit for
// bit; dead fields exactly +0; a folded field's column the session's
// minimum in row 0 and its maximum in the others (either one throughout
// when only it is read), as stats.Extremes finds them over the dense
// column, and stats.Extremes over the folded column finds the same.
func assertFolded(t *testing.T, what string, l features.Layout, folded features.FieldSet, got, dense ColClosed) {
	t.Helper()
	g, d := got, dense
	g.Chunks, d.Chunks = nil, nil
	if !reflect.DeepEqual(g, d) || len(got.Chunks) != len(dense.Chunks) {
		t.Fatalf("%s: %+v with %d chunks, dense %+v with %d", what, g, len(got.Chunks), d, len(dense.Chunks))
	}
	n := len(got.Chunks)
	gc, dc := make([]float64, n), make([]float64, n)
	bitsOf := math.Float64bits
	for b := 0; b < 11; b++ {
		bit := features.FieldSet(1) << b
		for i := range got.Chunks {
			gc[i], dc[i] = fieldsOf(got.Chunks[i])[b], fieldsOf(dense.Chunks[i])[b]
		}
		switch {
		case l.Fields&bit == 0:
			for i, v := range gc {
				if bitsOf(v) != 0 {
					t.Fatalf("%s chunk %d dead field %d reads %v", what, i, b, v)
				}
			}
		case folded&bit == 0:
			for i, v := range gc {
				if bitsOf(v) != bitsOf(dc[i]) {
					t.Fatalf("%s chunk %d field %d: %v (bits %x), dense %v (bits %x)", what, i, b, v, bitsOf(v), dc[i], bitsOf(dc[i]))
				}
			}
		case n > 0:
			lo, hi := stats.Extremes(dc)
			first, rest := lo, hi
			if l.Mins&bit == 0 {
				first = hi
			}
			if l.Maxes&bit == 0 {
				rest = lo
			}
			for i, v := range gc {
				want := rest
				if i == 0 {
					want = first
				}
				if bitsOf(v) != bitsOf(want) {
					t.Fatalf("%s chunk %d folded field %d: %v (bits %x), want %v (bits %x)", what, i, b, v, bitsOf(v), want, bitsOf(want))
				}
			}
			glo, ghi := stats.Extremes(gc)
			if (l.Mins&bit != 0 && bitsOf(glo) != bitsOf(lo)) || (l.Maxes&bit != 0 && bitsOf(ghi) != bitsOf(hi)) {
				t.Fatalf("%s folded field %d: extremes %v, %v; dense column's %v, %v", what, b, glo, ghi, lo, hi)
			}
		}
	}
}

// TestFoldedStoreMatchesDense holds each folding layout to the dense
// tracker over one mixed stream: a seeded live workload, transport
// values patched with NaN, ±Inf and both zeros, with watch pages and
// idle gaps that close and reopen flows in place, interleaved idle
// sweeps and a mid-stream flush; then chunk counts across every page
// seam, pages interleaved, closed on a watch page and refilled over the
// freed pages. Every closed session is checked (assertFolded) as it
// comes out and its buffer recycled, over a pool seeded dirty, so later
// sessions close into used buffers. The header takes the folds the
// layout leaves room for, a row keeps the rest, and the store holds as
// many pages as the dense one at its own page width.
func TestFoldedStoreMatchesDense(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for _, l := range foldLayouts {
		t.Run(l.name, func(t *testing.T) {
			dense, in := newTestTracker(DefaultConfig())
			fold := NewColTracker(layoutConfig(l.layout))
			fold.Resolve = in.name
			var took features.FieldSet
			for _, fd := range fold.folds {
				took |= features.FieldRTTMin << fd.field
			}
			rows := bits.OnesCount16(uint16(l.layout.Fields &^ features.CoreFields &^ l.folded))
			if took != l.folded || fold.arena.k != 3+rows {
				t.Fatalf("header folds %#b and rows hold %d floats, want %#b and %d", took, fold.arena.k, l.folded, 3+rows)
			}
			for _, c := range []int{8, 16, 64, 256} {
				dirty := fold.TakeChunks(c)[:c]
				for i := range dirty {
					dirty[i] = features.ChunkObs{Time: -1, SizeKB: -1, DurationSec: -1, RTTMin: -1, RTTAvg: -1, RTTMax: -1,
						BDP: -1, BIFAvg: -1, BIFMax: -1, LossPct: -1, RetransPct: -1}
				}
				fold.Recycle(dirty)
			}
			checked := 0
			check := func(got, want []ColClosed) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("closed %d sessions, dense %d", len(got), len(want))
				}
				for i := range got {
					assertFolded(t, fmt.Sprintf("session %d", checked), l.layout, l.folded, got[i], want[i])
					fold.Recycle(got[i].Chunks)
					dense.Recycle(want[i].Chunks)
					checked++
				}
			}
			push := func(r Rec) {
				got, want := fold.PushInto(&r, nil), dense.PushInto(&r, nil)
				check(got, want)
				if fold.Open() != dense.Open() {
					t.Fatalf("%d open, dense %d", fold.Open(), dense.Open())
				}
			}

			live := workload.GenerateLive(workload.LiveConfig{Subscribers: 24, SessionsPerSubscriber: 3, Seed: 5})
			for i, e := range live.Entries {
				r := in.rec(e)
				if k := i / 5; i%5 == 2 {
					r.RTTMin, r.RTTMax, r.BDP, r.BIFAvg = odd[k%5], odd[(k+1)%5], odd[(k+2)%5], odd[(k+3)%5]
					r.BIFMax, r.Loss, r.Retrans = odd[(k+4)%5], odd[k%5], odd[(k+1)%5]
				}
				push(r)
				switch {
				case i%211 == 100:
					check(fold.AdvanceInto(e.Timestamp, nil), dense.AdvanceInto(e.Timestamp, nil))
				case i == 2*len(live.Entries)/3:
					check(fold.FlushInto(nil), dense.FlushInto(nil))
				}
			}
			check(fold.FlushInto(nil), dense.FlushInto(nil))
			if checked < 24*3 {
				t.Fatalf("the live stream closed %d sessions", checked)
			}

			counts := []int{0, 1, 7, 8, 9, 16, 17, 5*pageRows + 3}
			subs := make([]uint32, len(counts))
			for s := range subs {
				subs[s] = in.rec(weblog.Entry{Subscriber: fmt.Sprintf("seam-%d", s)}).Sub
			}
			fill := func(gen, shift int) {
				for j := 0; j < counts[len(counts)-1]; j++ { // round-robin: pages interleave
					for s := range counts {
						if j < counts[(s+shift)%len(counts)] {
							r := seamRec(subs[s], gen, j)
							if j%3 == 1 {
								r.RTTMax, r.BIFAvg, r.Loss, r.RTTMin = odd[j%5], odd[(j+1)%5], odd[(j+2)%5], odd[(j+3)%5]
							}
							push(r)
						}
					}
				}
			}
			for gen, shift := range []int{0, 3} {
				for _, sub := range subs {
					push(Rec{Sub: sub, Kind: weblog.HostWatchPage, Ts: float64((gen+1)*1000 - 1)})
				}
				fill(gen+1, shift)
				if fold.StoreBytes()/fold.arena.width() != dense.StoreBytes()/dense.arena.width() || fold.StoreBytes() == 0 {
					t.Fatalf("store holds %d B at %d floats a page, dense %d B at %d", fold.StoreBytes(), fold.arena.width(),
						dense.StoreBytes(), dense.arena.width())
				}
			}
			check(fold.FlushInto(nil), dense.FlushInto(nil))

			// columns whose extremes hang on stats.Extremes' exact rule:
			// zeros of both signs (the first one seen stays), a NaN first
			// (the maximum moves past it, the minimum keeps it) or later
			mz := math.Copysign(0, -1)
			for p, col := range [][]float64{{0, mz}, {mz, 0, mz}, {mz}, {odd[0], 1, 2}, {1, odd[0], 0}, {odd[1], odd[2]}} {
				sub := in.rec(weblog.Entry{Subscriber: fmt.Sprintf("edge-%d", p)}).Sub
				for j, v := range col {
					push(Rec{Sub: sub, Kind: weblog.HostMedia, Ts: 5000 + float64(j), KB: 1, Dur: 0.1,
						RTTMin: v, RTTAvg: v, RTTMax: v, BDP: v, BIFAvg: v, BIFMax: v, Loss: v, Retrans: v})
				}
			}
			check(fold.FlushInto(nil), dense.FlushInto(nil))
		})
	}
}

// pushCrowd opens n flows under subscriber IDs from..from+n-1 and gives
// each the given number of chunks in tick order — no two consecutive
// records on one flow, the wide_open shape. Start times are distinct,
// so ordering a closed batch never resolves a name.
func pushCrowd(tr *ColTracker, from uint32, n, chunks int) {
	for j := 0; j < chunks; j++ {
		for s := 0; s < n; s++ {
			r := seamRec(from+uint32(s), 1, j)
			r.Ts = float64(j) + float64(s)*1e-4
			tr.Push(&r)
		}
	}
}

// growFlowTable brings the tracker's flow array and probe table to the
// size n open flows need, with chunkless flows that touch neither the
// arena nor the buffer pool, and flushes them.
func growFlowTable(tr *ColTracker, n int) {
	for s := 1; s <= n; s++ {
		tr.Push(&Rec{Sub: uint32(s), Kind: weblog.HostWatchPage})
	}
	tr.FlushInto(nil)
}

// TestArenaReleasesAfterFlashCrowd: the flow store gives a crowd's
// memory back. 50k flows of 12 chunks come and go on one tracker; two
// collections after the flush and the recycling, the heap is within
// 1 MB of where it stood before them (what may stay is the bounded
// transient pool), and a second crowd over the released arena closes
// bit-identical sessions. The flow array and probe table, which hold
// 56 B a flow at peak and do not shrink, are grown beforehand.
func TestArenaReleasesAfterFlashCrowd(t *testing.T) {
	const flows, chunks = 50_000, 12
	tr := NewColTracker(layoutConfig(features.Layout{Fields: benchFields}))
	tr.Resolve = func(id uint32) string { return fmt.Sprint(id) }
	growFlowTable(tr, flows)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	crowd := func() (closed []ColClosed, peak int) {
		pushCrowd(tr, 1, flows, chunks)
		peak = tr.StoreBytes()
		closed = tr.FlushInto(make([]ColClosed, 0, flows))
		return closed, peak
	}
	first, peak := crowd()
	if want := flows * 2 * (pageRows*6 + 1) * 8; peak < want || peak > want+want/50 {
		t.Errorf("crowd held %d store bytes, want %d (two pages a flow) and under 2%% more", peak, want)
	}
	sum := func(cs []ColClosed) (h uint64) { // digests, then recycles
		for _, c := range cs {
			h = h*31 + uint64(c.Sub)
			for _, ch := range c.Chunks {
				for _, v := range fieldsOf(ch) {
					h = h*31 + math.Float64bits(v)
				}
			}
			tr.Recycle(c.Chunks)
		}
		return h
	}
	if len(first) != flows || len(first[flows-1].Chunks) != chunks {
		t.Fatalf("crowd closed %d sessions", len(first))
	}
	firstSum := sum(first)
	first = nil
	if tr.StoreBytes() != 0 {
		t.Errorf("flushed tracker still holds %d store bytes", tr.StoreBytes())
	}
	after := heap()
	t.Logf("heap %d B before the crowd, %d B at its peak in the store alone, %d B after it left", before, peak, after)
	if after > before+1<<20 {
		t.Errorf("%d B not given back", after-before)
	}
	second, _ := crowd()
	if len(second) != flows || sum(second) != firstSum {
		t.Errorf("second crowd over the released arena closed different sessions")
	}
}

// TestArenaTrimKeepsWavesReturnsQuiet pins the sweep path's policy: a
// population that closes at every sweep and is back before the next
// keeps its slabs however often it does so (no slab re-allocated per
// wave), and once it stays away the slabs are gone within two trim
// looks.
func TestArenaTrimKeepsWavesReturnsQuiet(t *testing.T) {
	const flows, chunks = 3000, 12
	tr := NewColTracker(layoutConfig(features.Layout{Fields: benchFields}))
	tr.Resolve = func(id uint32) string { return fmt.Sprint(id) }
	var buf []ColClosed
	sweep := func() int {
		buf = tr.AdvanceInto(1e9, buf[:0]) // everything is idle at that clock
		for _, c := range buf {
			tr.Recycle(c.Chunks)
		}
		return len(buf)
	}
	pushCrowd(tr, 1, flows, chunks)
	held := tr.StoreBytes()
	for wave := 0; wave < 3*trimEvery; wave++ {
		if n := sweep(); n != flows {
			t.Fatalf("wave %d: sweep closed %d flows", wave, n)
		}
		pushCrowd(tr, 1, flows, chunks)
		if tr.StoreBytes() != held {
			t.Fatalf("wave %d: store went %d → %d bytes: waves between sweeps must keep their slabs", wave, held, tr.StoreBytes())
		}
	}
	sweep()
	for i := 0; i < 2*trimEvery; i++ {
		sweep()
	}
	if tr.StoreBytes() != 0 {
		t.Errorf("%d sweeps after the last flow left, the store still holds %d of %d bytes", 2*trimEvery, tr.StoreBytes(), held)
	}
}

// TestPushNewFlowsAllocatePerSlabNotPerFlow is the flow store's
// allocation gate on opens: 20k never-seen subscribers given 12 chunks
// each in tick order allocate a slab per 512 pages and nothing per
// flow — under 0.01 objects a flow — once the flow table has its size,
// the extremes of the benchmark layout's folds included.
func TestPushNewFlowsAllocatePerSlabNotPerFlow(t *testing.T) {
	const flows, chunks = 20_000, 12
	tr := NewColTracker(layoutConfig(benchLayout))
	tr.Resolve = func(id uint32) string { return fmt.Sprint(id) }
	growFlowTable(tr, 2*flows)
	next := uint32(1)
	allocs := testing.AllocsPerRun(1, func() { // runs twice: 40k flows stay open
		pushCrowd(tr, next, flows, chunks)
		next += flows
	})
	perFlow := allocs / flows
	t.Logf("%.0f allocations for %d flows: %.4f a flow", allocs, flows, perFlow)
	if perFlow >= 0.01 {
		t.Errorf("opening %d flows of %d chunks allocates %.0f objects, %.4f a flow; want < 0.01", flows, chunks, allocs, perFlow)
	}
	if tr.Open() != 2*flows {
		t.Fatalf("%d flows open, want %d", tr.Open(), 2*flows)
	}
}

// TestPushSteadyStateZeroAlloc is the gate on the steady state: over a
// warm tracker, open → 45 chunks, touched and pushed as the shard does
// (PushInto into a reused closed buffer) → close on the next watch page
// → recycle allocates nothing — pages come off the free stack, the
// closed buffer out of the pool, the folds in the flow header. Push, the
// one-record form, must stay allocation-free as well: its one-element
// buffer lives on its stack.
func TestPushSteadyStateZeroAlloc(t *testing.T) {
	tr := NewColTracker(layoutConfig(benchLayout))
	chunks := make([]Rec, 45)
	for j := range chunks {
		chunks[j] = seamRec(1, 0, j)
	}
	page := Rec{Sub: 1, Kind: weblog.HostWatchPage}
	every := positions(len(chunks))
	closed := make([]ColClosed, 0, 1)
	check := func(c ColClosed) {
		if len(c.Chunks) != 45 {
			t.Fatalf("closed a %d-chunk session", len(c.Chunks))
		}
		tr.Recycle(c.Chunks)
	}
	session := func() {
		if closed = tr.PushInto(&page, closed[:0]); len(closed) == 1 {
			check(closed[0])
		}
		tr.Touch(chunks, every)
		for j := range chunks {
			closed = tr.PushInto(&chunks[j], closed[:0])
		}
	}
	wrapped := func() {
		if c, ok := tr.Push(&page); ok {
			check(c)
		}
		tr.Touch(chunks, every)
		for j := range chunks {
			tr.Push(&chunks[j])
		}
	}
	session()
	session()
	if allocs := testing.AllocsPerRun(100, session); allocs != 0 {
		t.Errorf("a steady-state session allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, wrapped); allocs != 0 {
		t.Errorf("a steady-state session through Push allocates %v times, want 0", allocs)
	}
}

// TestCloseZeroesNonLiveFieldsOfRecycledBuffers: close writes a closed
// session's rows field by field into a pooled buffer, so a buffer that
// comes back from the pool with every field of every row set must
// still close with each non-live field exactly +0 and each live field
// what was pushed.
func TestCloseZeroesNonLiveFieldsOfRecycledBuffers(t *testing.T) {
	tr := NewColTracker(layoutConfig(features.Layout{Fields: benchFields}))
	dirty := make([]features.ChunkObs, 16)
	for i := range dirty {
		dirty[i] = features.ChunkObs{Time: 1e9, SizeKB: 1e9, DurationSec: 1e9, RTTMin: 1e9, RTTAvg: 1e9, RTTMax: 1e9,
			BDP: 1e9, BIFAvg: 1e9, BIFMax: 1e9, LossPct: 1e9, RetransPct: 1e9}
	}
	tr.Recycle(dirty)

	const chunks = 12
	var pushed []Rec
	for i := 0; i < chunks; i++ {
		f := float64(i + 1)
		r := Rec{Sub: 1, Kind: weblog.HostMedia, Ts: 2 * f, Dur: 0.1 * f, KB: 100 * f,
			RTTMin: 0.01 * f, RTTAvg: 0.02 * f, RTTMax: 0.03 * f, BDP: 1000 * f,
			BIFAvg: 2000 * f, BIFMax: 3000 * f, Loss: 0.5 * f, Retrans: 0.25 * f}
		pushed = append(pushed, r)
		tr.Push(&r)
	}
	closed := tr.AdvanceInto(1e9, nil)
	if len(closed) != 1 || len(closed[0].Chunks) != chunks {
		t.Fatalf("closed %d sessions, want one of %d chunks", len(closed), chunks)
	}
	got := closed[0].Chunks
	if &got[0] != &dirty[0] {
		t.Fatal("the closed session did not take the recycled buffer")
	}
	for i, r := range pushed {
		want := fieldsOf(features.ChunkObs{Time: r.Ts + r.Dur, SizeKB: r.KB, DurationSec: r.Dur,
			RTTMin: r.RTTMin, RTTAvg: r.RTTAvg, RTTMax: r.RTTMax, BDP: r.BDP,
			BIFAvg: r.BIFAvg, BIFMax: r.BIFMax, LossPct: r.Loss, RetransPct: r.Retrans})
		g := fieldsOf(got[i])
		for b := range g {
			w := 0.0
			if benchFields&(1<<b) != 0 {
				w = want[b]
			}
			if math.Float64bits(g[b]) != math.Float64bits(w) {
				t.Fatalf("chunk %d field %d reads %v, want %v", i, b, g[b], w)
			}
		}
	}
}

// positions is 0, 1, …, n-1: every rec of a batch, as a shard's share
// lists them.
func positions(n int) []uint32 {
	at := make([]uint32, n)
	for i := range at {
		at[i] = uint32(i)
	}
	return at
}

// BenchmarkPushWide is the shard's push loop over a flow table far
// beyond cache: 2¹⁷ open flows, sub-batches of 128 signalling recs in
// random subscriber order (find and the flow header, no arena row, and
// nothing closes). "push" pushes a sub-batch rec by rec; "touch+push"
// touches its slots first, as the shard does. ns/op is per sub-batch.
func BenchmarkPushWide(b *testing.B) {
	const flows, batch, batches = 1 << 17, 128, 1 << 10
	tr := NewColTracker(layoutConfig(benchLayout))
	for sub := uint32(1); sub <= flows; sub++ {
		tr.Push(&Rec{Sub: sub, Kind: weblog.HostWatchPage})
	}
	rng := rand.New(rand.NewSource(1))
	every := positions(batch)
	recs := make([][]Rec, batches)
	for i := range recs {
		recs[i] = make([]Rec, batch)
		for j := range recs[i] {
			recs[i][j] = Rec{Sub: 1 + uint32(rng.Intn(flows)), Kind: weblog.HostSignal, Ts: 1, Dur: 0.1, KB: 2}
		}
	}
	for _, touch := range []bool{false, true} {
		name := "push"
		if touch {
			name = "touch+push"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs := recs[i%batches]
				if touch {
					tr.Touch(rs, every)
				}
				for j := range rs {
					tr.Push(&rs[j])
				}
			}
			if tr.Open() != flows {
				b.Fatalf("%d flows open, want %d", tr.Open(), flows)
			}
		})
	}
}
