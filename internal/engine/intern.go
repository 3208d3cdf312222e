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
// subscriber lands in recs[i].Sub, its cohort in recs[i].Cohort, its
// target shard in shards[i]. The common case — everything already
// interned — runs entirely under the read lock; a batch with misses
// takes the write lock once for all of them.
func (n *interner) resolve(entries []weblog.Entry, recs []sessionizer.Rec, shards []uint32) {
	misses := false
	// one-entry cohort cache: a batch usually cycles through a handful
	// of cohort keys, and the repeat compare is three pointer-equal
	// string checks instead of a three-string map hash
	var lastK cohort.Key
	var lastID uint32
	n.mu.RLock()
	for i := range entries {
		e, r := &entries[i], &recs[i]
		if se, ok := n.subs[e.Subscriber]; ok {
			r.Sub = se.id
			shards[i] = se.shard
		} else {
			r.Sub = 0 // not-yet-interned marker
			misses = true
		}
		r.Cohort = 0
		if e.Region != "" || e.Device != "" || e.Cap != "" {
			k := cohort.Key{Region: e.Region, Device: e.Device, Cap: e.Cap}
			if k == lastK && lastID != 0 {
				r.Cohort = lastID
			} else if id, ok := n.cohorts[k]; ok {
				r.Cohort = id
				lastK, lastID = k, id
			} else {
				misses = true // 0 + metadata present = miss
			}
		}
	}
	n.mu.RUnlock()
	if !misses {
		return
	}
	n.mu.Lock()
	for i := range entries {
		e, r := &entries[i], &recs[i]
		if r.Sub == 0 {
			se, ok := n.subs[e.Subscriber]
			if !ok {
				// clone: the caller's entry (and its string backing) may
				// be decode scratch reused after the feed call returns
				se = n.addSub(strings.Clone(e.Subscriber))
			}
			r.Sub = se.id
			shards[i] = se.shard
		}
		if r.Cohort == 0 && (e.Region != "" || e.Device != "" || e.Cap != "") {
			id, ok := n.cohorts[cohort.Key{Region: e.Region, Device: e.Device, Cap: e.Cap}]
			if !ok {
				id = n.addCohort(cohort.Key{
					Region: strings.Clone(e.Region),
					Device: strings.Clone(e.Device),
					Cap:    strings.Clone(e.Cap),
				})
			}
			r.Cohort = id
		}
	}
	n.publish()
	n.mu.Unlock()
}

// intern is resolve for the fused wire door, which keeps its own
// per-connection caches and asks only about what they missed: subs[i]
// resolves into refs[i], the region/device/cap triple cohorts[i] into
// ids[i]. One write lock covers the call; strings are built only for
// identities the engine has not seen either.
func (n *interner) intern(subs [][]byte, refs []sessionizer.SubRef, cohorts [][3][]byte, ids []uint32) {
	n.mu.Lock()
	for i, b := range subs {
		se, ok := n.subs[string(b)]
		if !ok {
			se = n.addSub(string(b))
		}
		refs[i] = sessionizer.SubRef{Name: n.names[se.id], ID: se.id, Shard: se.shard}
	}
	for i, c := range cohorts {
		ids[i] = 0
		if len(c[0])+len(c[1])+len(c[2]) == 0 {
			continue // no metadata, as on the Entry door
		}
		id, ok := n.cohorts[cohort.Key{Region: string(c[0]), Device: string(c[1]), Cap: string(c[2])}]
		if !ok {
			id = n.addCohort(cohort.Key{Region: string(c[0]), Device: string(c[1]), Cap: string(c[2])})
		}
		ids[i] = id
	}
	n.publish()
	n.mu.Unlock()
}

// addSub interns a subscriber the table does not hold; name must be
// the interner's own copy. The caller holds the write lock.
func (n *interner) addSub(name string) subEntry {
	se := subEntry{id: uint32(len(n.names)), shard: fnvShard(name, n.shards)}
	n.subs[name] = se
	n.names = append(n.names, name)
	n.interned.Add(1)
	return se
}

// addCohort is addSub for a cohort key (whose strings the interner
// must own).
func (n *interner) addCohort(k cohort.Key) uint32 {
	id := uint32(len(n.keys))
	n.cohorts[k] = id
	n.keys = append(n.keys, k)
	return id
}

// publish makes what the write-locked section appended visible to the
// lock-free readers. The caller holds the write lock.
func (n *interner) publish() {
	if v := n.view.Load(); len(v.names) != len(n.names) || len(v.keys) != len(n.keys) {
		n.view.Store(&internView{n.names, n.keys})
	}
}

// recSlab is one batch's reusable routing storage: the shard-contiguous
// Rec backing the per-shard sub-batches view into, the scatter's
// per-shard counts, and the Entry doors' digest scratch (flat, shardOf;
// the wire door brings its own). Slabs live in a sync.Pool; the batch
// hand-off owns them by refcount — scatter pre-sets pending to the
// number of non-empty sub-batches, each shard releases after fully
// processing its message (submit releases for a sub-batch it sheds), and
// the last release returns the slab. Per-shard views are therefore
// valid exactly until the owning shard's release — shards must not
// retain them past the message.
type recSlab struct {
	pool    *sync.Pool
	out     []sessionizer.Rec // scatter backing, shard-contiguous
	counts  []uint32
	per     [][]sessionizer.Rec
	pending atomic.Int32
	done    func() // the batch's completion callback, if any

	flat    []sessionizer.Rec // digest: entry order
	shardOf []uint32
}

// release drops one reference; the last one reports the batch done and
// returns the slab to its pool.
func (b *recSlab) release() {
	if b.pending.Add(-1) == 0 {
		if done := b.done; done != nil {
			b.done = nil
			done()
		}
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

// digest is the Entry doors' front half: it resolves the batch's
// identities and builds its recs, in entry order, in the slab's digest
// scratch — what the wire door's decoder hands over ready-made.
func (n *interner) digest(b *recSlab, entries []weblog.Entry) ([]sessionizer.Rec, []uint32) {
	b.flat = growCap(b.flat, len(entries))
	b.shardOf = growCap(b.shardOf, len(entries))
	n.resolve(entries, b.flat, b.shardOf)
	for i := range entries {
		e, r := &entries[i], &b.flat[i]
		r.Kind = weblog.ClassifyHost(e.Host)
		r.Ts = e.Timestamp
		r.Dur = e.TransactionSec
		r.KB = float64(e.Bytes) / 1000
		r.RTTMin, r.RTTAvg, r.RTTMax = e.RTTMin, e.RTTAvg, e.RTTMax
		r.BDP = e.BDP
		r.BIFAvg, r.BIFMax = e.BIFAvg, e.BIFMax
		r.Loss, r.Retrans = e.LossPct, e.RetransPct
	}
	return b.flat, b.shardOf
}

// scatter routes recs — recs[i] bound for shard shardOf[i] — into the
// slab's shard-contiguous backing, copying each exactly once. The per[s]
// views are then ready to mail, and the refcount is pre-accounted with
// the returned number of non-empty views: every one of them must be
// matched by exactly one release — the shard's after processing it, or
// the caller's for a view it does NOT deliver.
func (b *recSlab) scatter(recs []sessionizer.Rec, shardOf []uint32, nsh int) int {
	b.counts = growCap(b.counts, nsh)
	for i := range b.counts {
		b.counts[i] = 0
	}
	for _, s := range shardOf {
		b.counts[s]++
	}
	b.out = growCap(b.out, len(recs))
	b.per = growCap(b.per, nsh)
	off := uint32(0)
	views := 0
	for s, c := range b.counts {
		b.per[s] = b.out[off : off+c]
		b.counts[s] = off // from here on: shard s's next write position
		off += c
		if c > 0 {
			views++
		}
	}
	b.pending.Store(int32(views))
	for i := range recs {
		s := shardOf[i]
		b.out[b.counts[s]] = recs[i]
		b.counts[s]++
	}
	return views
}
