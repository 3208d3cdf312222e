package sessionizer

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vqoe/internal/features"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

// benchFields is the projection the benchmark's two models (modelSeed
// 1) derive: the three core fields plus RTT max, BIF avg, packet loss.
const benchFields = features.CoreFields | features.FieldRTTMax | features.FieldBIFAvg | features.FieldLossPct

// storeFieldSets are the layouts the store tests run under: the
// three-field minimum, the benchmark's six, all eleven.
var storeFieldSets = []features.FieldSet{features.CoreFields, benchFields, features.AllFields}

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
	for _, fs := range storeFieldSets {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("fields=%#x/seed=%d", fs, seed), func(t *testing.T) {
				live := workload.GenerateLive(workload.LiveConfig{Subscribers: 24, SessionsPerSubscriber: 3, Seed: seed})
				cfg := DefaultConfig()
				dense, in := newTestTracker(cfg)
				cfg.Fields = fs
				proj := NewColTracker(cfg)
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
					assertProjected(t, fmt.Sprintf("session %d", i), fs, got[i], want[i])
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
	for _, fs := range storeFieldSets {
		t.Run(fmt.Sprintf("fields=%#x", fs), func(t *testing.T) {
			tr := NewColTracker(Config{IdleGap: 1e9, PageBoundary: true, Fields: fs})
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
						if fs&(1<<b) == 0 {
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
	tr := NewColTracker(Config{IdleGap: 30, PageBoundary: true, Fields: benchFields})
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
	tr := NewColTracker(Config{IdleGap: 30, PageBoundary: true, Fields: benchFields})
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
// flow — under 0.01 objects a flow — once the flow table has its size.
func TestPushNewFlowsAllocatePerSlabNotPerFlow(t *testing.T) {
	const flows, chunks = 20_000, 12
	tr := NewColTracker(Config{IdleGap: 30, PageBoundary: true, Fields: benchFields})
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
// warm tracker, open → 45 chunks → close on the next watch page →
// recycle allocates nothing — pages come off the free stack, the closed
// buffer out of the pool.
func TestPushSteadyStateZeroAlloc(t *testing.T) {
	tr := NewColTracker(Config{IdleGap: 30, PageBoundary: true, Fields: benchFields})
	session := func() {
		if c, ok := tr.Push(&Rec{Sub: 1, Kind: weblog.HostWatchPage}); ok {
			if len(c.Chunks) != 45 {
				t.Fatalf("closed a %d-chunk session", len(c.Chunks))
			}
			tr.Recycle(c.Chunks)
		}
		for j := 0; j < 45; j++ {
			r := seamRec(1, 0, j)
			tr.Push(&r)
		}
	}
	session()
	session()
	if allocs := testing.AllocsPerRun(100, session); allocs != 0 {
		t.Errorf("a steady-state session allocates %v times, want 0", allocs)
	}
}
