package engine

import (
	"strings"
	"sync"
	"sync/atomic"

	"vqoe/internal/cohort"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// interner assigns dense uint32 IDs to subscriber strings and cohort
// keys at the engine front door, so everything behind the shard
// mailboxes works integer-keyed: the flow-table probe hashes a uint32
// instead of a string, and routing reuses the shard index computed
// once per unique subscriber instead of re-hashing fnv32a per entry.
// Strings are resolved back at session close (reports, cohort rollups,
// flight retention) and per lifecycle-trace event.
//
// Lookup is two-phase: a batch conversion runs entirely under the read
// lock, marking misses, and only batches that actually carry new
// subscribers/cohorts take the write lock once. IDs start at 1; 0
// means "absent" (no cohort metadata, not-yet-interned marker).
//
// The reverse direction takes no lock at all: names and keys only ever
// grow by append, and every write-locked section that grew them
// publishes the new slice headers as one internView before it unlocks.
// An ID reaches a shard only through a mailbox, after the resolve call
// that interned it has published, so any view a shard loads covers
// every ID it holds; later appends write past the view's length (or
// into a fresh backing array) and never touch what it reads. IDs are
// never reused — a reclaiming interner must first resolve or epoch-tag
// whatever still holds an old ID (open flows, the trace ring).
type interner struct {
	mu     sync.RWMutex
	shards uint32

	subs  map[string]subEntry
	names []string // id → subscriber; names[0] unused

	cohorts map[cohort.Key]uint32
	keys    []cohort.Key // id → key; keys[0] is the zero key

	view atomic.Pointer[internView]

	// interned counts unique subscribers, readable without the lock
	// (Snapshot/debug use).
	interned atomic.Int64
}

// subEntry is one interned subscriber: its dense ID and its home shard
// (fnv32a(subscriber) mod shard count — computed once, at intern time,
// with exactly the hash the legacy per-entry router used, so the
// subscriber→shard mapping is unchanged).
type subEntry struct {
	id, shard uint32
}

// internView is the lock-free read side of the interner: the id →
// string tables as of one publication. Immutable once stored.
type internView struct {
	names []string
	keys  []cohort.Key
}

func newInterner(shards int) *interner {
	n := &interner{
		shards:  uint32(shards),
		subs:    make(map[string]subEntry),
		names:   make([]string, 1),
		cohorts: make(map[cohort.Key]uint32),
		keys:    make([]cohort.Key, 1),
	}
	n.view.Store(&internView{n.names, n.keys})
	return n
}

// fnvShard is hash/fnv's 32-bit FNV-1a over s, reduced mod n — the
// same value the legacy Engine.split computed per entry.
func fnvShard(s string, n uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h % n
}

// name resolves an interned subscriber ID through the published view.
// Safe for concurrent use (shards resolve per traced chunk and at
// session close while feeders intern new batches).
func (n *interner) name(id uint32) string { return n.view.Load().names[id] }

// cohortKey resolves an interned cohort ID; id 0 is the zero key.
func (n *interner) cohortKey(id uint32) cohort.Key { return n.view.Load().keys[id] }

// resolve pre-digests a batch's identities: entry i's interned
// subscriber lands in subs[i], its cohort in cohorts[i], its target
// shard in shards[i]. The common case — everything already interned —
// runs entirely under the read lock; a batch with misses takes the
// write lock once for all of them. Only uint32s are written here; the
// caller constructs the full Rec directly at its routed position.
func (n *interner) resolve(entries []weblog.Entry, subs, cohorts, shards []uint32) {
	misses := false
	// one-entry cohort cache: a batch usually cycles through a handful
	// of cohort keys, and the repeat compare is three pointer-equal
	// string checks instead of a three-string map hash
	var lastK cohort.Key
	var lastID uint32
	n.mu.RLock()
	for i := range entries {
		e := &entries[i]
		if se, ok := n.subs[e.Subscriber]; ok {
			subs[i] = se.id
			shards[i] = se.shard
		} else {
			subs[i] = 0 // not-yet-interned marker
			misses = true
		}
		if e.Region != "" || e.Device != "" || e.Cap != "" {
			k := cohort.Key{Region: e.Region, Device: e.Device, Cap: e.Cap}
			if k == lastK && lastID != 0 {
				cohorts[i] = lastID
			} else if id, ok := n.cohorts[k]; ok {
				cohorts[i] = id
				lastK, lastID = k, id
			} else {
				cohorts[i] = 0 // 0 + metadata present = miss
				misses = true
			}
		} else {
			cohorts[i] = 0
		}
	}
	n.mu.RUnlock()
	if !misses {
		return
	}
	n.mu.Lock()
	for i := range entries {
		e := &entries[i]
		if subs[i] == 0 {
			se, ok := n.subs[e.Subscriber]
			if !ok {
				// clone: the caller's entry (and its string backing) may
				// be decode scratch reused after the feed call returns
				sub := strings.Clone(e.Subscriber)
				se = subEntry{id: uint32(len(n.names)), shard: fnvShard(sub, n.shards)}
				n.subs[sub] = se
				n.names = append(n.names, sub)
				n.interned.Add(1)
			}
			subs[i] = se.id
			shards[i] = se.shard
		}
		if cohorts[i] == 0 && (e.Region != "" || e.Device != "" || e.Cap != "") {
			k := cohort.Key{
				Region: strings.Clone(e.Region),
				Device: strings.Clone(e.Device),
				Cap:    strings.Clone(e.Cap),
			}
			id, ok := n.cohorts[k]
			if !ok {
				id = uint32(len(n.keys))
				n.cohorts[k] = id
				n.keys = append(n.keys, k)
			}
			cohorts[i] = id
		}
	}
	if v := n.view.Load(); len(v.names) != len(n.names) || len(v.keys) != len(n.keys) {
		n.view.Store(&internView{n.names, n.keys})
	}
	n.mu.Unlock()
}

// recSlab is one batch's reusable routing storage: the shard-contiguous
// Rec backing the per-shard sub-batches view into, and the scatter
// bookkeeping (interned IDs, per-entry shard, per-shard counts). Slabs
// live in a sync.Pool; the batch hand-off owns them by refcount —
// partition pre-sets pending to the number of non-empty sub-batches,
// each shard releases after fully processing its message (submit
// releases for a sub-batch it sheds), and the last release returns the
// slab. Per-shard views are therefore valid exactly until the owning
// shard's release — shards must not retain them past the message.
type recSlab struct {
	pool     *sync.Pool
	out      []sessionizer.Rec // scatter backing, shard-contiguous
	subID    []uint32
	cohortID []uint32
	shardOf  []uint32
	counts   []uint32
	per      [][]sessionizer.Rec
	pending  atomic.Int32
}

// release drops one reference; the last one returns the slab to its
// pool.
func (b *recSlab) release() {
	if b.pending.Add(-1) == 0 {
		b.pool.Put(b)
	}
}

// growCap returns s resized to n, reallocating only on capacity
// exhaustion.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// partition resolves a batch's identities and routes it into per-shard
// sub-batches, constructing each Rec exactly once, directly at its
// final position in the slab's shard-contiguous backing. The returned
// slab's per[i] views are ready to mail, and its refcount is
// pre-accounted with the returned number of non-empty views: every one
// of them must be matched by exactly one release — the shard's after
// processing it, or the caller's for a view it does NOT deliver.
func (e *Engine) partition(entries []weblog.Entry) (*recSlab, int) {
	b := e.slabs.Get().(*recSlab)
	n := len(entries)
	nsh := len(e.shards)
	b.subID = growCap(b.subID, n)
	b.cohortID = growCap(b.cohortID, n)
	b.shardOf = growCap(b.shardOf, n)
	b.counts = growCap(b.counts, nsh)
	for i := range b.counts {
		b.counts[i] = 0
	}
	e.interner.resolve(entries, b.subID, b.cohortID, b.shardOf)
	for _, s := range b.shardOf[:n] {
		b.counts[s]++
	}
	b.out = growCap(b.out, n)
	b.per = growCap(b.per, nsh)
	off := uint32(0)
	views := 0
	for s, c := range b.counts {
		b.per[s] = b.out[off : off : off+c]
		off += c
		if c > 0 {
			views++
		}
	}
	b.pending.Store(int32(views))
	for i := range entries {
		e := &entries[i]
		s := b.shardOf[i]
		b.per[s] = append(b.per[s], sessionizer.Rec{
			Sub:     b.subID[i],
			Cohort:  b.cohortID[i],
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
		})
	}
	return b, views
}
