package engine

import (
	"cmp"
	"hash/maphash"
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
// once per unique subscriber instead of re-hashing per entry. Strings
// are resolved back at session close (reports, cohort rollups, flight
// retention) and per lifecycle-trace event.
//
// Both doors resolve a batch through one routine, settle, which takes mu
// only for a batch with a first sight in it. IDs start at 1 and are
// assigned in first-sight order; 0 means "absent" (no cohort metadata).
// A new name, cohort key or cohort label is cut from the current
// nameBlockBytes block and kept as a substring of it, which pins the
// block: first sight allocates per block, not per identity.
//
// Reading takes no lock at all (DESIGN §13). The id → x tables only
// grow by append; the published internView holds each at its full
// capacity beside a count of the IDs written into it, and the locked side
// writes an ID's every column, then bumps the count, then stores the
// ID's index slot (publish). A new view is stored only when an append
// moved a table or an index doubled — a view from before then keeps
// counts that stop there, so its reader misses and takes the locked
// path. An ID reaches a shard only through a mailbox, after the call
// that interned it has published, so any view a shard loads covers every
// ID it holds; later appends never touch what it reads. IDs are never
// reused — a reclaiming interner must first resolve or epoch-tag
// whatever still holds an old ID (open flows, the trace ring), and it
// frees names a block at a time.
type interner struct {
	mu     sync.Mutex
	shards uint32
	tables                 // as the locked side grows them
	block  strings.Builder // what new names, keys and labels are cut from
	blocks atomic.Int64    // bytes of every block started so far
	view   atomic.Pointer[internView]
}

// index maps one identity's keys to IDs: linear probing at load ≤ ½
// over a power of two of one-word slots — upper half a tag (the upper
// half of the key's seeded 64-bit hash), lower half the ID, 0 for empty.
// A run starts at tag mod len(slots), so a table is rebuilt from its
// words alone. A slot is stored under mu, once, after its ID is counted
// (publish); settle and find read the published view's table without
// the lock, and a table since replaced or an ID its view does not count
// only turns a hit into a miss, which the locked pass settles.
type index struct {
	slots []atomic.Uint64
	names []string // id → key; names[0] unused
}

// tables are the interner's id → x columns and the indexes over them.
type tables struct {
	subs  index    // by name
	homes []uint32 // id → fnvShard(subs.names[id]), computed at first sight

	cohorts index        // by canonical key (weblog.AppendCohortKey)
	keys    []cohort.Key // id → key; keys[0] is the zero key
	labels  []string     // id → keys[id].String(), rendered once
}

// internView is the lock-free read side: the tables with every column
// at full capacity, and per identity the IDs written into them so far.
// A reader bounds every ID by the count it loaded; below it the columns
// never change.
type internView struct {
	tables
	nSubs, nCohorts atomic.Uint32
}

// idSeed keys the indexes' hash for this process: a peer who chooses
// subscriber names cannot aim them at one run of a linear-probing table.
var idSeed = maphash.MakeSeed()

// nameBlockBytes is one name block: over a thousand subscriber names.
// minSlots is the size each index starts at.
const nameBlockBytes, minSlots = 16 << 10, 1 << 10

func newInterner(shards int) *interner {
	n := &interner{shards: uint32(shards), tables: tables{
		subs:    index{make([]atomic.Uint64, minSlots), make([]string, 1)},
		homes:   make([]uint32, 1),
		cohorts: index{make([]atomic.Uint64, minSlots), make([]string, 1)},
		keys:    make([]cohort.Key, 1),
		labels:  []string{cohort.Key{}.String()},
	}}
	n.publish()
	return n
}

// fnvShard is the routing rule: hash/fnv's 32-bit FNV-1a over the
// subscriber, reduced mod the shard count.
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
func (n *interner) name(id uint32) string { return n.view.Load().subs.names[id] }

// cohortKey resolves an interned cohort ID to its key in the view's
// column, which is never written again; id 0 is the zero key.
func (n *interner) cohortKey(id uint32) *cohort.Key { return &n.view.Load().keys[id] }

// cohortLabel is cohortKey(id).String(), rendered once at first sight.
func (n *interner) cohortLabel(id uint32) string { return n.view.Load().labels[id] }

// room starts a new block unless the current one takes size more bytes;
// what was cut from the old one keeps it alive. The caller holds n.mu.
func (n *interner) room(size int) {
	if n.block.Cap()-n.block.Len() < size {
		n.block.Reset()
		n.block.Grow(max(size, nameBlockBytes))
		n.blocks.Add(int64(n.block.Cap()))
	}
}

// probe is an index's one lookup: it walks the run of key, whose hash
// is the upper half of h, and returns its ID, or 0 and the empty slot
// that ended the run. A slot answers for key only if names, the column
// the caller reads IDs by, covers its ID and holds the same bytes there.
func probe(slots []atomic.Uint64, names []string, h uint64, key []byte) (id, at uint32) {
	tag, mask := uint32(h>>32), uint32(len(slots)-1)
	for at = tag & mask; ; at = (at + 1) & mask {
		w := slots[at].Load()
		if w == 0 {
			return 0, at
		}
		if id = uint32(w); uint32(w>>32) == tag && int(id) < len(names) && names[id] == string(key) {
			return id, at
		}
	}
}

// add is an index's lookup-or-add: the ID of key, whose hash is h, in x,
// or, for a new key, its new ID and the slot it goes in (at), which the
// caller stores with commit once the ID's other columns are written. key
// may be decode scratch: a lookup builds no string, and a new key is
// stored under the interner's own copy, cut from the current block. The
// caller holds n.mu.
func (n *interner) add(x *index, h uint64, key []byte) (id, at uint32, fresh bool) {
	id, at = probe(x.slots, x.names, h, key)
	if id != 0 {
		return id, 0, false
	}
	if 2*len(x.names) > len(x.slots) {
		// full: an O(slots) pause moves every word to the end of its run
		// (nil names: no slot answers); readers keep the old table until publish
		old := x.slots
		x.slots = make([]atomic.Uint64, 2*len(old))
		for i := range old {
			if w := old[i].Load(); w != 0 {
				_, to := probe(x.slots, nil, w, key)
				x.slots[to].Store(w)
			}
		}
		_, at = probe(x.slots, nil, h, key)
	}
	n.room(len(key))
	off := n.block.Len()
	n.block.Write(key)
	id = uint32(len(x.names))
	x.names = append(x.names, n.block.String()[off:])
	return id, at, true
}

// commit makes a new ID whose columns are all written visible: publish
// counts it, then its slot in x is stored. The caller holds n.mu.
func (n *interner) commit(x *index, at uint32, h uint64, id uint32) {
	n.publish()
	x.slots[at].Store(h>>32<<32 | uint64(id))
}

// lookupCohort is add for a canonical cohort key of more than three
// bytes (not the all-empty triple's). A new cohort's three strings are
// substrings of the interner's copy of its key, and its label — what
// cohort.Key.String renders — is written to the block once.
func lookupCohort(n *interner, h uint64, key []byte) uint32 {
	id, at, fresh := n.add(&n.cohorts, h, key)
	if fresh {
		k := weblog.SplitCohortKey(n.cohorts.names[id])
		n.room(len(k[0]) + len(k[1]) + len(k[2]) + 5)
		off := n.block.Len()
		for i, s := range k {
			if i > 0 {
				n.block.WriteByte('/')
			}
			n.block.WriteString(cmp.Or(s, "-"))
		}
		n.keys = append(n.keys, cohort.Key{Region: k[0], Device: k[1], Cap: k[2]})
		n.labels = append(n.labels, n.block.String()[off:])
		n.commit(&n.cohorts, at, h, id)
	}
	return id
}

// settle is the one routine both doors resolve a batch through: rec i's
// subscriber subs[i] into recs[i].Sub and shardOf[i], its canonical
// cohort key keys[i] into recs[i].Cohort — 0 for a key of three bytes
// or fewer, none or the all-empty triple's. The first pass reads the
// published view without the lock, the subscribers in two: one hashes
// each name and loads its home slot, keeping the tag in recs[i].Sub, so
// the home-slot misses overlap; the other probes. A batch it settles
// whole takes no lock; one with any miss takes mu once and looks up what
// missed, interning what is new (a subscriber with its home shard).
// Nothing passed in is retained.
func (n *interner) settle(subs, keys [][]byte, recs []sessionizer.Rec, shardOf []uint32) {
	v := n.view.Load()
	names, cohorts := v.subs.names[:v.nSubs.Load()], v.cohorts.names[:v.nCohorts.Load()]
	mask := uint64(len(v.subs.slots) - 1)
	for i, name := range subs {
		h := maphash.Bytes(idSeed, name) >> 32
		v.subs.slots[h&mask].Load()
		recs[i].Sub = uint32(h)
	}
	miss := false
	for i, name := range subs {
		id, _ := probe(v.subs.slots, names, uint64(recs[i].Sub)<<32, name)
		recs[i].Sub, shardOf[i] = id, v.homes[id]
		miss = miss || id == 0
	}
	for i, key := range keys {
		recs[i].Cohort = 0
		if len(key) > 3 {
			recs[i].Cohort, _ = probe(v.cohorts.slots, cohorts, maphash.Bytes(idSeed, key), key)
			miss = miss || recs[i].Cohort == 0
		}
	}
	if !miss {
		return
	}
	n.mu.Lock()
	for i, name := range subs {
		if recs[i].Sub == 0 {
			h := maphash.Bytes(idSeed, name)
			id, at, fresh := n.add(&n.subs, h, name)
			if fresh {
				n.homes = append(n.homes, fnvShard(n.subs.names[id], n.shards))
				n.commit(&n.subs, at, h, id)
			}
			recs[i].Sub, shardOf[i] = id, n.homes[id]
		}
	}
	for i, key := range keys {
		if recs[i].Cohort == 0 && len(key) > 3 {
			recs[i].Cohort = lookupCohort(n, maphash.Bytes(idSeed, key), key)
		}
	}
	n.mu.Unlock()
}

// find resolves label subscribers without interning: subs[i] into
// refs[i] as an earlier settle published it, or into the zero SubRef —
// for a name never seen, and now and then for one interned a moment ago.
func (n *interner) find(subs [][]byte, refs []sessionizer.SubRef) {
	v := n.view.Load()
	names := v.subs.names[:v.nSubs.Load()]
	for i, name := range subs {
		id, _ := probe(v.subs.slots, names, maphash.Bytes(idSeed, name), name)
		refs[i] = sessionizer.SubRef{Name: v.subs.names[id], ID: id, Shard: v.homes[id]}
	}
}

// publish makes every ID the locked side has written visible to the
// lock-free readers: it counts them in the published view, or, when an
// append moved a table or an index doubled since that view was stored,
// stores a new one over the tables as they are now. The caller holds
// n.mu.
func (n *interner) publish() {
	v := n.view.Load()
	moved := v == nil || !covers(v.tables, n.tables)
	if moved {
		v = &internView{tables: n.tables}
		v.subs.names = v.subs.names[:cap(v.subs.names)]
		v.homes = v.homes[:cap(v.homes)]
		v.cohorts.names = v.cohorts.names[:cap(v.cohorts.names)]
		v.keys = v.keys[:cap(v.keys)]
		v.labels = v.labels[:cap(v.labels)]
	}
	v.nSubs.Store(uint32(len(n.subs.names)))
	v.nCohorts.Store(uint32(len(n.keys)))
	if moved {
		n.view.Store(v)
	}
}

// covers reports whether a view's tables are the same arrays as the
// locked side's, so that what is appended to the one lands in the other.
func covers(v, t tables) bool {
	return same(v.subs.slots, t.subs.slots) && same(v.subs.names, t.subs.names) && same(v.homes, t.homes) &&
		same(v.cohorts.slots, t.cohorts.slots) && same(v.cohorts.names, t.cohorts.names) &&
		same(v.keys, t.keys) && same(v.labels, t.labels)
}

// same reports whether two non-empty slices share their backing array
// and its capacity.
func same[T any](a, b []T) bool { return &a[0] == &b[0] && cap(a) == cap(b) }

// InternerStats is what the interner holds, read without a lock: the
// subscribers interned so far, the slots of their index, and the bytes of
// every table the interner keeps and of every block.
func (e *Engine) InternerStats() (subscribers, slots int, bytes int64) {
	v := e.interner.view.Load()
	return int(v.nSubs.Load()) - 1, len(v.subs.slots), int64(8*(len(v.subs.slots)+len(v.cohorts.slots))+
		16*(cap(v.subs.names)+cap(v.cohorts.names)+cap(v.labels))+4*cap(v.homes)+48*cap(v.keys)) + e.interner.blocks.Load()
}

// recSlab is one batch's routing storage, written once and read in
// place: the batch's recs in arrival order and the shard each is bound
// for, as the door wrote them (the wire door's decoder through Batch, the
// Entry doors' digest), and per shard the positions of its admitted recs.
// Slabs live in a sync.Pool; the batch hand-off owns them by refcount —
// scatter pre-sets pending to the number of non-empty shares plus one for
// the submit loop, each shard releases after fully processing its
// message (submit for a share it sheds, and once more after the last),
// and the last release returns the slab. A shard reads recs through its
// positions until its release — shards must not retain either past the
// message.
type recSlab struct {
	pool    *sync.Pool
	recs    []sessionizer.Rec // the batch, in arrival order
	shardOf []uint32          // recs[i]'s shard; scatter moves a reject's to nsh+reason
	at      []uint32          // admitted positions, shard-contiguous
	counts  []uint32          // per shard (after scatter: where its positions end), then per reject reason
	pending atomic.Int32
	done    func()                   // the batch's completion callback, if any
	feed    func(k int, done func()) // Batch's hand-back, made once per slab

	// the Entry doors' conversion scratch: each entry's subscriber and
	// canonical cohort key, written into buf
	subs, keys [][]byte
	buf        []byte
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

// digest is the one Entry→Rec edge adapter, in front of submit for
// Ingest, Feed and Offer: it writes the batch's recs into the slab, each
// once, in entry order, and every entry's identities as the wire door's
// decoder finds them in a frame, then settles them as that door does. It
// judges nothing (see admit).
func (n *interner) digest(b *recSlab, entries []weblog.Entry) {
	b.recs = growCap(b.recs, len(entries))
	b.shardOf = growCap(b.shardOf, len(entries))
	b.subs = growCap(b.subs, len(entries))
	b.keys = growCap(b.keys, len(entries))
	b.buf = b.buf[:0]
	for i := range entries {
		e := &entries[i]
		// an append that moves buf leaves what was cut from it before intact
		off := len(b.buf)
		b.buf = append(b.buf, e.Subscriber...)
		b.subs[i], off = b.buf[off:], len(b.buf)
		b.buf = weblog.AppendCohortKey(b.buf, e.Region, e.Device, e.Cap)
		b.keys[i] = b.buf[off:]
		// in place, as the wire door's emit fills its recs (DESIGN §13)
		r := &b.recs[i]
		r.Kind, r.Ts, r.Dur, r.KB = weblog.ClassifyHost(e.Host), e.Timestamp, e.TransactionSec, float64(e.Bytes)/1000
		r.RTTMin, r.RTTAvg, r.RTTMax, r.BDP = e.RTTMin, e.RTTAvg, e.RTTMax, e.BDP
		r.BIFAvg, r.BIFMax, r.Loss, r.Retrans = e.BIFAvg, e.BIFMax, e.LossPct, e.RetransPct
	}
	n.settle(b.subs, b.keys, b.recs, b.shardOf)
}

// RejectReasons names the admission rule's reject reasons, in the order
// Rejected counts them and vqoe_ingest_rejected_total labels them.
var RejectReasons = [rejectReasons]string{rejectNegative: "negative", rejectNonFinite: "non_finite"}

const (
	rejectNegative = iota
	rejectNonFinite
	rejectReasons
)

// admit is the admission rule, the one check between any door and a
// shard mailbox: every float of a rec is finite, and none but the
// timestamp (finiteness only: range and order are the flow table's
// business) is negative. It returns the reason a rec is refused,
// non-finite before negative, or -1. A non-finite timestamp would turn
// the shard's sweep test into a NaN comparison for good; one NaN
// duration stays in every running sum it reaches.
func admit(r *sessionizer.Rec) int {
	// x-x is 0 for a finite x, NaN for NaN and ±Inf, and NaN absorbs the sum
	if (r.Ts-r.Ts)+(r.Dur-r.Dur)+(r.KB-r.KB)+(r.RTTMin-r.RTTMin)+(r.RTTAvg-r.RTTAvg)+(r.RTTMax-r.RTTMax)+
		(r.BDP-r.BDP)+(r.BIFAvg-r.BIFAvg)+(r.BIFMax-r.BIFMax)+(r.Loss-r.Loss)+(r.Retrans-r.Retrans) != 0 {
		return rejectNonFinite
	}
	if r.Dur < 0 || r.KB < 0 || r.RTTMin < 0 || r.RTTAvg < 0 || r.RTTMax < 0 ||
		r.BDP < 0 || r.BIFAvg < 0 || r.BIFMax < 0 || r.Loss < 0 || r.Retrans < 0 {
		return rejectNegative
	}
	return -1
}

// scatter routes the slab's recs — recs[i] bound for shard shardOf[i]
// — to their shards without moving one: a counting sort of positions,
// with one bucket per shard and one per reject reason. The counting pass
// runs the admission rule; a reject is counted (and returned, by
// reason), its shardOf entry moved to its reason's bucket, and it is
// never listed, never mailed. Each shard's positions (positions) are then
// listed in arrival order, ready to mail, and the refcount is
// pre-accounted with the number of shards that have any plus one: every
// non-empty share must be matched by exactly one release — the shard's
// after processing it, or the caller's for a share it does NOT deliver —
// and the caller releases once more when done with the shares.
func (b *recSlab) scatter(nsh int) (rejected [rejectReasons]uint32) {
	b.counts = growCap(b.counts, nsh+rejectReasons)
	clear(b.counts)
	shardOf := b.shardOf[:len(b.recs)]
	for i := range b.recs {
		if why := admit(&b.recs[i]); why >= 0 {
			shardOf[i] = uint32(nsh + why)
		}
		b.counts[shardOf[i]]++
	}
	admitted := len(b.recs)
	for why, n := range b.counts[nsh:] {
		rejected[why] = n
		admitted -= int(n)
	}
	b.at = growCap(b.at, admitted)
	off := uint32(0)
	refs := int32(1)
	for s, c := range b.counts[:nsh] {
		b.counts[s] = off // from here on: shard s's next write position
		off += c
		if c > 0 {
			refs++
		}
	}
	b.pending.Store(refs)
	for i, s := range shardOf {
		if int(s) < nsh {
			b.at[b.counts[s]] = uint32(i)
			b.counts[s]++
		}
	}
	return rejected
}

// positions is shard s's share after scatter: the positions in recs of
// its admitted recs, in arrival order.
func (b *recSlab) positions(s int) []uint32 {
	lo := uint32(0)
	if s > 0 {
		lo = b.counts[s-1]
	}
	return b.at[lo:b.counts[s]]
}
