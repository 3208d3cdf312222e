package sessionizer

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"vqoe/internal/features"
	"vqoe/internal/weblog"
)

// Rec is the engine's pre-digested form of one weblog entry: the
// subscriber and cohort identities interned to dense uint32 IDs, the
// host classified once, and exactly the float fields featurization
// reads. At 104 pointer-free bytes it is less than half an Entry's
// size, carries no string headers for the collector to scan, and is
// built once per entry at the engine front door — every stage behind
// the shard mailboxes then works integer-keyed.
//
// Sub must be non-zero (interners assign IDs from 1); Cohort zero
// means the entry carried no operator metadata.
type Rec struct {
	Sub    uint32
	Cohort uint32
	Kind   weblog.HostClass

	Ts  float64 // request timestamp (capture clock, seconds)
	Dur float64 // transaction duration, seconds
	KB  float64 // object size in kilobytes (Bytes/1000)

	RTTMin, RTTAvg, RTTMax float64
	BDP                    float64
	BIFAvg, BIFMax         float64
	Loss, Retrans          float64
}

// SubRef is one interned subscriber as the engine front door hands it
// to a decoder that builds Recs itself: the ID for Rec.Sub, the home
// shard to route by, and the engine's own copy of the name (a cache
// keyed by it allocates nothing).
type SubRef struct {
	Name      string
	ID, Shard uint32
}

// ColClosed is one finished session emitted by the columnar tracker:
// the session identity as interned IDs plus the media chunk
// observations in arrival order. Chunks is a pooled buffer the tracker
// filled from the flow's pages at close: fields outside the tracker's
// Config.Fields read exactly zero. The consumer owns it until it hands
// it back via ColTracker.Recycle, once the session has been assessed
// and compacted; a session without media chunks has none.
type ColClosed struct {
	Sub        uint32
	Cohort     uint32 // first non-zero cohort ID seen, 0 when none
	Start, End float64
	Entries    int // all service entries the session grouped
	Chunks     []features.ChunkObs
}

// colFlow is one open session: a fixed-width header and its chunk
// rows as a chain of arena pages, head to tail, named by page index.
// The struct holds no pointer (TestColFlowIsPointerFree), so the flow
// array is never scanned by the collector.
type colFlow struct {
	sub        uint32
	cohort     uint32
	slot       uint32 // back-pointer into slots for swap-delete fixup
	entries    int32
	start, end float64
	head, tail uint32 // first and last page; meaningful while chunks > 0
	chunks     uint32
}

// colSlot is one open-addressing table slot; ref is the flow index + 1
// so the zero value means empty.
type colSlot struct {
	sub, ref uint32
}

// ColTracker reconstructs sessions incrementally, one record at a
// time, across many subscribers at once — the flow-table form of the
// §5.2 heuristics a live monitor needs, where re-sorting whole traces
// per decision is impossible. Sessions are keyed by interned subscriber
// IDs, looked up through an open-addressing probe (integer
// multiply-shift hash, linear probing, backward-shift deletion), and
// buffer, per media chunk, only the Config.Fields of the observation
// featurization reads — in fixed pages of a pointer-free arena (see
// pageArena), so an open flow costs its chunks rounded up to a page and
// growing one neither allocates nor copies. The splitting rule is
// Group's: the tests in this package prove a trace pushed through a
// ColTracker yields, per subscriber, exactly the sessions Group
// reconstructs from it.
//
// ColTracker is not safe for concurrent use; the engine gives each
// shard its own instance.
type ColTracker struct {
	cfg   Config
	slots []colSlot
	mask  uint32
	shift uint32
	flows []colFlow
	arena pageArena
	// net lists the live transport fields (0 = RTTMin … 7 = RetransPct)
	// in row order; a row is time, size, duration, then these.
	net []uint8
	// free pools the transient buffers of the close path by capacity
	// class: a closed session's Chunks and its featurization copy.
	free [chunkClasses][][]features.ChunkObs

	// Resolve maps an interned subscriber ID back to its string — used
	// only off the hot path: ordering ties in Advance/Flush, the
	// OpenSnapshot debug view. Must be set before those are called.
	Resolve func(uint32) string

	// OnOpen, when set, is called as each new session enters the flow
	// table (the lifecycle tracer hangs off this). Inline on Push —
	// keep it cheap.
	OnOpen func(sub uint32, start float64)
}

// minChunkCap is the smallest capacity a pooled chunk buffer is
// allocated with; chunkClasses power-of-two size classes start there
// (8 … 2048), so a buffer taken at a closed session's final length is
// at most twice its size. Bucketing by capacity means a take never
// misses on a too-small top-of-stack buffer: any buffer in class k or
// above fits a request that rounds to class k.
const (
	minChunkCap  = 8
	chunkClasses = 9
)

// maxFreeChunks bounds each size class of the recycled chunk-buffer
// pool, in chunks of capacity (1,024 buffers of 8, four of 2,048);
// beyond it, returned buffers are dropped for the collector.
const maxFreeChunks = 1 << 13

// NewColTracker returns an empty columnar flow table with the given
// splitting parameters.
func NewColTracker(cfg Config) *ColTracker {
	if cfg.IdleGap <= 0 {
		cfg.IdleGap = 30
	}
	if cfg.Fields == 0 {
		cfg.Fields = features.AllFields
	}
	const initSlots = 256
	t := &ColTracker{
		cfg:   cfg,
		slots: make([]colSlot, initSlots),
		mask:  initSlots - 1,
		shift: 32 - uint32(bits.TrailingZeros32(initSlots)),
	}
	for i := uint8(0); i < 8; i++ {
		if cfg.Fields&(features.FieldRTTMin<<i) != 0 {
			t.net = append(t.net, i)
		}
	}
	t.arena.k = 3 + len(t.net)
	return t
}

// Open reports how many sessions are currently being tracked.
func (t *ColTracker) Open() int { return len(t.flows) }

func (t *ColTracker) home(sub uint32) uint32 {
	// Fibonacci hashing: the multiplier spreads dense interned IDs
	// across the table's top bits.
	return (sub * 0x9E3779B1) >> t.shift
}

// find probes for sub, returning its slot (or the empty slot where it
// would be inserted) and its flow index (-1 when absent).
func (t *ColTracker) find(sub uint32) (uint32, int) {
	i := t.home(sub)
	for {
		s := t.slots[i]
		if s.ref == 0 {
			return i, -1
		}
		if s.sub == sub {
			return i, int(s.ref - 1)
		}
		i = (i + 1) & t.mask
	}
}

// insert places a new flow for sub at the probed slot, growing the
// table first when load would exceed 3/4.
func (t *ColTracker) insert(slot, sub uint32) int {
	if (len(t.flows)+1)*4 >= len(t.slots)*3 {
		t.grow()
		slot, _ = t.find(sub)
	}
	fi := len(t.flows)
	t.flows = append(t.flows, colFlow{sub: sub, slot: slot})
	t.slots[slot] = colSlot{sub: sub, ref: uint32(fi) + 1}
	return fi
}

func (t *ColTracker) grow() {
	n := uint32(len(t.slots)) * 2
	t.slots = make([]colSlot, n)
	t.mask = n - 1
	t.shift = 32 - uint32(bits.TrailingZeros32(n))
	for fi := range t.flows {
		f := &t.flows[fi]
		i := t.home(f.sub)
		for t.slots[i].ref != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = colSlot{sub: f.sub, ref: uint32(fi) + 1}
		f.slot = i
	}
}

// remove deletes flow fi: swap-delete in the dense flow array and
// backward-shift deletion in the probe table, so probe chains stay
// tombstone-free.
func (t *ColTracker) remove(fi int) {
	t.delSlot(t.flows[fi].slot)
	last := len(t.flows) - 1
	if fi != last {
		t.flows[fi] = t.flows[last]
		t.slots[t.flows[fi].slot].ref = uint32(fi) + 1
	}
	t.flows = t.flows[:last]
}

// delSlot empties slot i, shifting later probe-chain members back so
// lookups never need tombstones.
func (t *ColTracker) delSlot(i uint32) {
	mask := t.mask
	j := i
	for {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.ref == 0 {
			break
		}
		// s may move into the hole iff its home position is cyclically
		// outside (i, j] — i.e. the hole sits on its probe chain.
		if (j-t.home(s.sub))&mask >= (j-i)&mask {
			t.slots[i] = s
			t.flows[s.ref-1].slot = i
			i = j
		}
	}
	t.slots[i] = colSlot{}
}

// TakeChunks pops a recycled chunk buffer with capacity at least min,
// searching the smallest size class that fits and walking up; only
// when every fitting class is empty does it allocate (at the class
// capacity, so the new buffer re-buckets exactly on Recycle). The
// tracker takes a closed session's Chunks here; callers that need
// scratch chunk storage with the same recycling discipline (the
// engine's featurization copies) do too.
func (t *ColTracker) TakeChunks(min int) []features.ChunkObs {
	k := 0
	for minChunkCap<<k < min {
		k++
	}
	if k >= chunkClasses {
		// beyond the largest class: unpooled exact allocation
		return make([]features.ChunkObs, 0, min)
	}
	for j := k; j < chunkClasses; j++ {
		if n := len(t.free[j]); n > 0 {
			c := t.free[j][n-1]
			t.free[j] = t.free[j][:n-1]
			return c
		}
	}
	return make([]features.ChunkObs, 0, minChunkCap<<k)
}

// Recycle returns a chunk buffer — a ColClosed's Chunks, or a
// featurization copy handed out by TakeChunks — to the pool once its
// session has been fully consumed. The buffer lands in the largest
// class its capacity covers; undersized buffers are dropped so the
// pool converges on useful capacities.
func (t *ColTracker) Recycle(chunks []features.ChunkObs) {
	cp := cap(chunks)
	if cp < minChunkCap {
		return
	}
	k := 0
	for k+1 < chunkClasses && minChunkCap<<(k+1) <= cp {
		k++
	}
	if len(t.free[k]) >= maxFreeChunks/(minChunkCap<<k) {
		return
	}
	t.free[k] = append(t.free[k], chunks[:0])
}

// Push feeds one pre-digested entry. Records for non-service hosts are
// ignored; records must arrive in non-decreasing timestamp order per
// subscriber. A media record's chunk observation goes into the tail
// row of the flow's last page — only the live fields are written; the
// rest of the record is dropped here. If the record closes the
// subscriber's previous session (page-load or idle-gap boundary), that
// session is returned.
func (t *ColTracker) Push(r *Rec) (ColClosed, bool) {
	if r.Kind == weblog.HostOther {
		return ColClosed{}, false
	}
	var out ColClosed
	var closed bool
	slot, fi := t.find(r.Sub)
	if fi < 0 {
		fi = t.insert(slot, r.Sub)
		t.flows[fi].start = r.Ts
		if t.OnOpen != nil {
			t.OnOpen(r.Sub, r.Ts)
		}
	} else if f := &t.flows[fi]; r.Ts-f.end > t.cfg.IdleGap ||
		(t.cfg.PageBoundary && r.Kind == weblog.HostWatchPage) {
		out, closed = t.close(f), true
		// reopen in place: same subscriber, same slot
		*f = colFlow{sub: f.sub, slot: f.slot, start: r.Ts}
		if t.OnOpen != nil {
			t.OnOpen(r.Sub, r.Ts)
		}
	}
	f := &t.flows[fi]
	f.entries++
	f.end = r.Ts
	if f.cohort == 0 {
		f.cohort = r.Cohort
	}
	if r.Kind == weblog.HostMedia {
		a := &t.arena
		k := a.k
		row := int(f.chunks%pageRows) * k
		if row == 0 {
			p := a.take()
			if f.chunks == 0 {
				f.head = p
			} else {
				a.page(f.tail)[pageRows*k] = float64(p)
			}
			f.tail = p
		}
		dst := a.page(f.tail)[row : row+k]
		dst[0], dst[1], dst[2] = r.Ts+r.Dur, r.KB, r.Dur
		net := [8]float64{r.RTTMin, r.RTTAvg, r.RTTMax, r.BDP, r.BIFAvg, r.BIFMax, r.Loss, r.Retrans}
		for i, j := range t.net {
			dst[3+i] = net[j]
		}
		f.chunks++
	}
	return out, closed
}

// close builds f's closed record: the chunk rows are read off the page
// chain into a pooled buffer of the session's final length, non-live
// fields zero, and the pages go back on the free stack. The caller
// resets or removes f.
func (t *ColTracker) close(f *colFlow) ColClosed {
	c := ColClosed{
		Sub: f.sub, Cohort: f.cohort,
		Start: f.start, End: f.end,
		Entries: int(f.entries),
	}
	n := int(f.chunks)
	if n == 0 {
		return c
	}
	c.Chunks = t.TakeChunks(n)[:n]
	a := &t.arena
	k := a.k
	for i, p := 0, f.head; i < n; {
		page := a.page(p)
		for row := 0; row < pageRows*k && i < n; row, i = row+k, i+1 {
			src := page[row : row+k]
			var net [8]float64
			for x, j := range t.net {
				net[j] = src[3+x]
			}
			c.Chunks[i] = features.ChunkObs{
				Time: src[0], SizeKB: src[1], DurationSec: src[2],
				RTTMin: net[0], RTTAvg: net[1], RTTMax: net[2], BDP: net[3],
				BIFAvg: net[4], BIFMax: net[5], LossPct: net[6], RetransPct: net[7],
			}
		}
		a.free = append(a.free, p)
		p = uint32(page[pageRows*k])
	}
	return c
}

// AdvanceInto closes every session idle at the given clock time,
// appending them to out; the appended segment is ordered by start time
// then subscriber. Call it periodically with the capture clock so quiet
// subscribers' last sessions don't linger.
func (t *ColTracker) AdvanceInto(now float64, out []ColClosed) []ColClosed {
	n := len(out)
	for fi := 0; fi < len(t.flows); {
		if f := &t.flows[fi]; now-f.end > t.cfg.IdleGap {
			out = append(out, t.close(f))
			t.remove(fi)
			continue // the swapped-in flow lands at fi; re-examine it
		}
		fi++
	}
	t.arena.trim(false)
	t.sortClosed(out[n:])
	return out
}

// FlushInto closes all open sessions regardless of idle state (end of
// capture), appending them to out ordered like AdvanceInto's.
func (t *ColTracker) FlushInto(out []ColClosed) []ColClosed {
	n := len(out)
	for fi := range t.flows {
		f := &t.flows[fi]
		out = append(out, t.close(f))
		t.slots[f.slot] = colSlot{}
	}
	t.flows = t.flows[:0]
	t.arena.trim(true)
	t.sortClosed(out[n:])
	return out
}

// StoreBytes is the memory the flow store's page slabs hold — what the
// open sessions' chunks cost, free pages of held slabs included.
func (t *ColTracker) StoreBytes() int { return t.arena.bytes() }

// sortClosed orders a closed batch by (start, subscriber). Subscriber
// strings are resolved only to break start-time ties, which are rare.
func (t *ColTracker) sortClosed(cs []ColClosed) {
	if len(cs) < 2 {
		return
	}
	// slices.SortFunc over sort.Slice: no reflect-based swapper
	// allocation per sweep. Keys are unique under this comparator (a
	// subscriber's sessions never share a start time), so any sort
	// yields the identical order.
	slices.SortFunc(cs, func(a, b ColClosed) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		return strings.Compare(t.Resolve(a.Sub), t.Resolve(b.Sub))
	})
}

// OpenSnapshot lists the open sessions ordered by start time then
// subscriber — the view served at /debug/sessions. Like every
// ColTracker method it must run on the owning goroutine (the engine
// routes it through the shard mailbox).
func (t *ColTracker) OpenSnapshot() []OpenSession {
	out := make([]OpenSession, 0, len(t.flows))
	for i := range t.flows {
		f := &t.flows[i]
		out = append(out, OpenSession{
			Subscriber: t.Resolve(f.sub),
			Start:      f.start,
			LastSeen:   f.end,
			Entries:    int(f.entries),
			Chunks:     int(f.chunks),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Subscriber < out[j].Subscriber
	})
	return out
}
