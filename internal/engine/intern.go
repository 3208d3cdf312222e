package engine

import (
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
// Both doors intern through the same two lookup-or-add routines
// (lookupSub, lookupCohort), under one acquisition of mu per call: the
// wire door for what find and its per-connection cohort cache missed
// (intern), the Entry doors for every entry of a batch (digest). IDs
// start at 1 and are assigned in first-sight order; 0 means "absent"
// (no cohort metadata). A new name or cohort label is cut from the
// current nameBlockBytes block and kept as a substring of it, which pins
// the block: first sight allocates per block, not per identity.
//
// Reading takes no lock at all (DESIGN §13). The id → x tables only
// grow by append, and every locked section that grew them publishes the
// new slice headers as one internView before it unlocks. An ID reaches a
// shard only through a mailbox, after the call that interned it has
// published, so any view a shard loads covers every ID it holds; later
// appends never touch what it reads. IDs are never reused — a reclaiming
// interner must first resolve or epoch-tag whatever still holds an old
// ID (open flows, the trace ring), and it frees names a block at a time.
//
// slots is the subscriber → ID index: linear probing at load ≤ ½ over a
// power of two of one-word slots — upper half a tag (the upper half of
// the name's seeded 64-bit hash), lower half the ID, 0 for empty. A run
// starts at tag mod len(slots), so a table is rebuilt from its words
// alone. A slot is stored under mu, once, after its name lies in names;
// find reads the published view's table without the lock, and a table
// since replaced or an ID its view does not cover yet only turns a hit
// into a miss, which lookupSub settles.
type interner struct {
	mu     sync.Mutex
	shards uint32

	slots []atomic.Uint64
	names []string // id → subscriber; names[0] unused
	homes []uint32 // id → fnvShard(names[id]), computed at first sight

	cohorts map[cohort.Key]uint32
	keys    []cohort.Key // id → key; keys[0] is the zero key
	labels  []string     // id → keys[id].String(), rendered once

	block  strings.Builder // what new names and labels are cut from
	blocks int             // bytes of every block started so far

	view atomic.Pointer[internView]
}

// internView is the lock-free read side of the interner as of one
// publication. Immutable once stored, but for empty slots being filled.
type internView struct {
	slots  []atomic.Uint64
	names  []string
	homes  []uint32
	keys   []cohort.Key
	labels []string
	blocks int
}

// subSeed keys the index's hash for this process: a peer who chooses
// subscriber names cannot aim them at one run of a linear-probing table.
var subSeed = maphash.MakeSeed()

// nameBlockBytes is one name block: over a thousand subscriber names.
// minSubSlots is the index an engine starts with.
const nameBlockBytes, minSubSlots = 16 << 10, 1 << 10

func newInterner(shards int) *interner {
	n := &interner{
		shards:  uint32(shards),
		slots:   make([]atomic.Uint64, minSubSlots),
		names:   make([]string, 1),
		homes:   make([]uint32, 1),
		cohorts: make(map[cohort.Key]uint32),
		keys:    make([]cohort.Key, 1),
		labels:  []string{cohort.Key{}.String()},
	}
	n.view.Store(&internView{n.slots, n.names, n.homes, n.keys, n.labels, 0})
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
func (n *interner) name(id uint32) string { return n.view.Load().names[id] }

// cohortKey resolves an interned cohort ID; id 0 is the zero key.
func (n *interner) cohortKey(id uint32) cohort.Key { return n.view.Load().keys[id] }

// cohortLabel is cohortKey(id).String(), rendered once at first sight.
func (n *interner) cohortLabel(id uint32) string { return n.view.Load().labels[id] }

// room starts a new block unless the current one takes size more bytes;
// what was cut from the old one keeps it alive. The caller holds n.mu.
func (n *interner) room(size int) {
	if n.block.Cap()-n.block.Len() < size {
		n.block.Reset()
		n.block.Grow(max(size, nameBlockBytes))
		n.blocks += n.block.Cap()
	}
}

// put appends s, or "-" for an empty s when dash is set, to the block.
// The caller has made room.
func put[S string | []byte](b *strings.Builder, s S, dash bool) {
	if dash && len(s) == 0 {
		b.WriteByte('-')
		return
	}
	switch v := any(s).(type) {
	case string:
		b.WriteString(v)
	case []byte:
		b.Write(v)
	}
}

// probe is the index's one lookup: it walks the run of name, whose hash
// is the upper half of h, and returns its ID, or 0 and the empty slot
// that ended the run. A slot answers for name only if names, the table
// the caller reads IDs by, covers its ID and holds the same bytes there.
func probe[S string | []byte](slots []atomic.Uint64, names []string, h uint64, name S) (id, at uint32) {
	tag, mask := uint32(h>>32), uint32(len(slots)-1)
	for at = tag & mask; ; at = (at + 1) & mask {
		w := slots[at].Load()
		if w == 0 {
			return 0, at
		}
		if id = uint32(w); uint32(w>>32) == tag && int(id) < len(names) && names[id] == string(name) {
			return id, at
		}
	}
}

// find is probe without the lock, for a frame's names at once: subs[i]
// resolves into refs[i] as an earlier locked section published it, or
// into the zero SubRef — for a name never seen, and now and then for one
// interned a moment ago. Two passes over one view overlap the home-slot
// misses: the first hashes each name and loads its slot, keeping the tag
// (the half of h probe reads) in refs[i].ID; the second probes.
func (n *interner) find(subs [][]byte, refs []sessionizer.SubRef) {
	v := n.view.Load()
	mask := uint64(len(v.slots) - 1)
	for i, name := range subs {
		h := maphash.Bytes(subSeed, name) >> 32
		v.slots[h&mask].Load()
		refs[i].ID = uint32(h)
	}
	for i, name := range subs {
		id, _ := probe(v.slots, v.names, uint64(refs[i].ID)<<32, name)
		refs[i] = sessionizer.SubRef{Name: v.names[id], ID: id, Shard: v.homes[id]}
	}
}

// lookupSub returns the subscriber name, whose hash is h, interning it
// on first sight. name may be decode scratch: a lookup builds no string,
// and a new subscriber is stored under the interner's own copy, cut from
// the current block. The caller holds n.mu and publishes before it
// unlocks.
func lookupSub[S string | []byte](n *interner, h uint64, name S) sessionizer.SubRef {
	id, at := probe(n.slots, n.names, h, name)
	if id == 0 {
		if 2*len(n.names) > len(n.slots) {
			// full: an O(slots) pause moves every word to the end of its run
			// (nil names: no slot answers); readers keep the old table until publish
			old := n.slots
			n.slots = make([]atomic.Uint64, 2*len(old))
			for i := range old {
				if w := old[i].Load(); w != 0 {
					_, to := probe(n.slots, nil, w, name)
					n.slots[to].Store(w)
				}
			}
			_, at = probe(n.slots, nil, h, name)
		}
		n.room(len(name))
		off := n.block.Len()
		put(&n.block, name, false)
		own := n.block.String()[off:]
		id = uint32(len(n.names))
		n.names = append(n.names, own)
		n.homes = append(n.homes, fnvShard(own, n.shards))
		n.slots[at].Store(h>>32<<32 | uint64(id))
	}
	return sessionizer.SubRef{Name: n.names[id], ID: id, Shard: n.homes[id]}
}

// lookupCohort is lookupSub for a region/device/cap triple; an all-empty
// one is no metadata, cohort 0, and is not interned. A new cohort's
// label — what cohort.Key.String renders — is written to the block
// once, and the key's own three strings are its substrings.
func lookupCohort[S string | []byte](n *interner, region, device, cp S) uint32 {
	if len(region)+len(device)+len(cp) == 0 {
		return 0
	}
	id, ok := n.cohorts[cohort.Key{Region: string(region), Device: string(device), Cap: string(cp)}]
	if !ok {
		dev := max(len(region), 1) + 1 // where the device starts in the label
		n.room(dev + max(len(device), 1) + 1 + max(len(cp), 1))
		off := n.block.Len()
		put(&n.block, region, true)
		n.block.WriteByte('/')
		put(&n.block, device, true)
		n.block.WriteByte('/')
		put(&n.block, cp, true)
		label := n.block.String()[off:]
		k := cohort.Key{Region: label[:len(region)], Device: label[dev : dev+len(device)], Cap: label[len(label)-len(cp):]}
		id = uint32(len(n.keys))
		n.cohorts[k] = id
		n.keys = append(n.keys, k)
		n.labels = append(n.labels, label)
	}
	return id
}

// intern is the fused wire door's locked half, asked only about what
// find and the connection's cohort cache missed. subs[i] resolves into
// refs[i], the region/device/cap triple cohorts[i] into ids[i].
func (n *interner) intern(subs [][]byte, refs []sessionizer.SubRef, cohorts [][3][]byte, ids []uint32) {
	n.mu.Lock()
	for i, b := range subs {
		refs[i] = lookupSub(n, maphash.Bytes(subSeed, b), b)
	}
	for i, c := range cohorts {
		ids[i] = lookupCohort(n, c[0], c[1], c[2])
	}
	n.publish()
	n.mu.Unlock()
}

// publish makes what the locked section appended visible to the
// lock-free readers. The caller holds n.mu.
func (n *interner) publish() {
	if v := n.view.Load(); len(v.names) != len(n.names) || len(v.keys) != len(n.keys) {
		n.view.Store(&internView{n.slots, n.names, n.homes, n.keys, n.labels, n.blocks})
	}
}

// InternerStats is what the interner holds, read without a lock: the
// subscribers interned so far, the slots of their index, and the bytes of
// the index, the id → name and id → shard tables and every name block.
func (e *Engine) InternerStats() (subscribers, slots int, bytes int64) {
	v := e.interner.view.Load()
	return len(v.names) - 1, len(v.slots), int64(8*len(v.slots) + 16*cap(v.names) + 4*cap(v.homes) + v.blocks)
}

// recSlab is one batch's reusable routing storage: the shard-contiguous
// Rec backing the per-shard sub-batches view into and the scatter's
// counts. Slabs live in a sync.Pool; the batch hand-off owns them by
// refcount — scatter pre-sets pending to the number of non-empty
// sub-batches plus one for the submit loop, each shard releases after
// fully processing its message (submit for a sub-batch it sheds, and
// once more after the last), and the last release returns the slab. A
// per-shard view is valid until its shard's release — shards must not
// retain it past the message.
type recSlab struct {
	pool    *sync.Pool
	out     []sessionizer.Rec // scatter backing, shard-contiguous
	counts  []uint32          // per shard, then per reject reason
	per     [][]sessionizer.Rec
	pending atomic.Int32
	done    func() // the batch's completion callback, if any
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

// digested is the Entry doors' pooled conversion scratch: a batch's recs
// in entry order and the shard each is bound for.
type digested struct {
	recs    []sessionizer.Rec
	shardOf []uint32
}

// digest is the one Entry→Rec edge adapter, in front of submit for
// Ingest, Feed and Offer: it interns every entry's identities under one
// lock acquisition, then builds the batch's recs into d — what the wire
// door's decoder hands over ready-made. It judges nothing (see admit).
func (n *interner) digest(d *digested, entries []weblog.Entry) {
	d.recs = growCap(d.recs, len(entries))
	d.shardOf = growCap(d.shardOf, len(entries))
	n.mu.Lock()
	for i := range entries {
		e, r := &entries[i], &d.recs[i]
		ref := lookupSub(n, maphash.String(subSeed, e.Subscriber), e.Subscriber)
		r.Sub, d.shardOf[i] = ref.ID, ref.Shard
		r.Cohort = lookupCohort(n, e.Region, e.Device, e.Cap)
	}
	n.publish()
	n.mu.Unlock()
	for i := range entries {
		e, r := &entries[i], &d.recs[i]
		r.Kind = weblog.ClassifyHost(e.Host)
		r.Ts = e.Timestamp
		r.Dur = e.TransactionSec
		r.KB = float64(e.Bytes) / 1000
		r.RTTMin, r.RTTAvg, r.RTTMax = e.RTTMin, e.RTTAvg, e.RTTMax
		r.BDP = e.BDP
		r.BIFAvg, r.BIFMax = e.BIFAvg, e.BIFMax
		r.Loss, r.Retrans = e.LossPct, e.RetransPct
	}
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

// scatter routes recs — recs[i] bound for shard shardOf[i] — into the
// slab's shard-contiguous backing, copying each admitted one exactly
// once: a counting sort with one bucket per shard and one per reject
// reason. The counting pass runs the admission rule; a reject is counted
// (and returned, by reason), never copied, never mailed, and the
// caller's slices are only read. The per[s] views are then ready to
// mail, and the refcount is pre-accounted with the number of non-empty
// views plus one: every view must be matched by exactly one release —
// the shard's after processing it, or the caller's for a view it does
// NOT deliver — and the caller releases once more when done with per.
func (b *recSlab) scatter(recs []sessionizer.Rec, shardOf []uint32, nsh int) (rejected [rejectReasons]uint32) {
	b.counts = growCap(b.counts, nsh+rejectReasons)
	clear(b.counts)
	rejects := 0
	for i := range recs {
		if why := admit(&recs[i]); why >= 0 {
			b.counts[nsh+why]++
			rejects++
		} else {
			b.counts[shardOf[i]]++
		}
	}
	copy(rejected[:], b.counts[nsh:])
	b.out = growCap(b.out, len(recs)-rejects)
	b.per = growCap(b.per, nsh)
	off := uint32(0)
	refs := int32(1)
	for s, c := range b.counts[:nsh] {
		b.per[s] = b.out[off : off+c]
		b.counts[s] = off // from here on: shard s's next write position
		off += c
		if c > 0 {
			refs++
		}
	}
	b.pending.Store(refs)
	for i := range recs {
		// the rule runs again only for a batch that has a reject in it
		if rejects > 0 && admit(&recs[i]) >= 0 {
			continue
		}
		s := shardOf[i]
		b.out[b.counts[s]] = recs[i]
		b.counts[s]++
	}
	return rejected
}
