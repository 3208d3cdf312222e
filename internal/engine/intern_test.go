package engine

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vqoe/internal/cohort"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// refsOf settles names as a frame's subscribers and returns what each
// resolved to.
func refsOf(in *interner, names [][]byte) []sessionizer.SubRef {
	recs, shardOf := make([]sessionizer.Rec, len(names)), make([]uint32, len(names))
	in.settle(names, nil, recs, shardOf)
	refs := make([]sessionizer.SubRef, len(names))
	for i, r := range recs {
		refs[i] = sessionizer.SubRef{Name: in.name(r.Sub), ID: r.Sub, Shard: shardOf[i]}
	}
	return refs
}

// cohortOf is the cohort the index tests give a subscriber: its name as
// the region, on a tv with an hd cap.
func cohortOf(name string) []byte { return weblog.AppendCohortKey(nil, name, "tv", "hd") }

// TestSubIndexRacesInterners is the one index under the race detector:
// readers Find batches of names — both feeders', one name twice — out of
// a set that two feeders are still interning, each name with a cohort of
// its own — one feeder through Settle, one through Feed, every fifth
// name offered by both — and Settle the names already fed with their
// cohort keys, while both tables double five times under them. A hit
// carries the ID, home shard, string and cohort the feeder was given,
// whichever table and view the batch happened to load; a name whose
// feeder had returned before the batch began must hit; a miss is settled
// by a probe under the lock, and what that finds the next Find finds
// too. IDs of both identities come out dense and, per feeder, in the
// order it offered its names, and InternerStats counts every table.
func TestSubIndexRacesInterners(t *testing.T) {
	const nsh, finders, perFeeder, batch = 4, 4, 5000, 50
	e := New(nil, Config{Shards: nsh, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
	defer e.Drain()
	in := e.interner

	// feeder w offers names[w] in order; every fifth name is the same in both
	var names [2][]string
	for w := range names {
		for i := 0; i < perFeeder; i++ {
			if i%5 == 0 {
				names[w] = append(names[w], fmt.Sprintf("both-%d", i))
			} else {
				names[w] = append(names[w], fmt.Sprintf("race-%d-%d", w, i))
			}
		}
	}
	// got[w][:done[w]] and coh[w][:done[w]] are what feeder w was
	// answered, readable after loading done[w]
	var got [2][perFeeder]sessionizer.SubRef
	var coh [2][perFeeder]uint32
	var done [2]atomic.Int32

	var feeders, readers sync.WaitGroup
	feeders.Add(2)
	for w := range names {
		go func() { // w 0 is the wire door, w 1 an Entry door
			defer feeders.Done()
			entries := make([]weblog.Entry, batch)
			subs, keys := make([][]byte, batch), make([][]byte, batch)
			recs, shardOf := make([]sessionizer.Rec, batch), make([]uint32, batch)
			for lo := 0; lo < perFeeder; lo += batch {
				for k := range subs {
					name := names[w][lo+k]
					entries[k] = weblog.Entry{Subscriber: name, Timestamp: float64(lo + k), Region: name, Device: "tv", Cap: "hd"}
					subs[k], keys[k] = []byte(name), cohortOf(name)
				}
				if w == 1 {
					e.Feed(entries)
					e.Find(subs, got[1][lo:lo+batch])
					for k, ref := range got[1][lo : lo+batch] {
						if ref.ID == 0 {
							t.Errorf("%q misses after the Feed that carried it", subs[k])
							return
						}
					}
				}
				e.Settle(subs, keys, recs, shardOf)
				for k, r := range recs {
					if w == 0 {
						got[0][lo+k] = sessionizer.SubRef{Name: in.name(r.Sub), ID: r.Sub, Shard: shardOf[k]}
					}
					coh[w][lo+k] = r.Cohort
				}
				done[w].Store(int32(lo + batch))
			}
		}()
	}

	stop := make(chan struct{})
	for r := 0; r < finders; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			const size = 16
			var w, i [size]int
			var fed [size]bool
			subs, refs := make([][]byte, size), make([]sessionizer.SubRef, size)
			var again [1]sessionizer.SubRef
			var fedSubs, fedKeys [][]byte
			var fedAt []int
			recs, shardOf := make([]sessionizer.Rec, size), make([]uint32, size)
			for n := r; ; n += 7 * size {
				select {
				case <-stop:
					return
				default:
				}
				for k := range subs {
					m := n + 7*k
					if k == size-1 {
						m = n // the batch's first name, twice
					}
					w[k], i[k] = m&1, (m>>1)%perFeeder
					fed[k] = int(done[w[k]].Load()) > i[k]
					subs[k] = []byte(names[w[k]][i[k]])
				}
				e.Find(subs, refs)
				for k, ref := range refs {
					name := names[w[k]][i[k]]
					switch {
					case ref.ID != 0:
						// got[w][i] is the feeder's to write until it is fed
						if ref.Name != name || ref.Shard != fnvShard(name, nsh) || in.name(ref.ID) != name || (fed[k] && ref != got[w[k]][i[k]]) {
							t.Errorf("Find(%q) = %+v (fed: %v)", name, ref, fed[k])
							return
						}
					case ref != sessionizer.SubRef{}:
						t.Errorf("Find(%q) missed as %+v, want the zero SubRef", name, ref)
						return
					case fed[k]:
						t.Errorf("Find(%q) misses after its feeder returned", name)
						return
					default:
						in.mu.Lock()
						id, _ := probe(in.subs.slots, in.subs.names, maphash.String(idSeed, name), subs[k])
						in.mu.Unlock()
						if e.Find(subs[k:k+1], again[:]); id != 0 && again[0].ID != id {
							t.Errorf("Find(%q) = %+v after the locked probe found ID %d", name, again[0], id)
							return
						}
					}
				}
				fedSubs, fedKeys, fedAt = fedSubs[:0], fedKeys[:0], fedAt[:0]
				for k := range subs {
					if fed[k] {
						fedSubs, fedKeys, fedAt = append(fedSubs, subs[k]), append(fedKeys, cohortOf(string(subs[k]))), append(fedAt, k)
					}
				}
				e.Settle(fedSubs, fedKeys, recs[:len(fedAt)], shardOf[:len(fedAt)])
				for j, k := range fedAt {
					want := got[w[k]][i[k]]
					if recs[j].Sub != want.ID || shardOf[j] != want.Shard || recs[j].Cohort != coh[w[k]][i[k]] {
						t.Errorf("Settle(%q) = sub %d on shard %d, cohort %d; its feeder got %+v, cohort %d",
							subs[k], recs[j].Sub, shardOf[j], recs[j].Cohort, want, coh[w[k]][i[k]])
						return
					}
				}
			}
		}(r)
	}
	feeders.Wait()
	close(stop)
	readers.Wait()

	subscribers, slots, bytes := e.InternerStats()
	v := in.view.Load()
	cohorts := int(v.nCohorts.Load()) - 1
	if want := 2*perFeeder - perFeeder/5; subscribers != want || slots < minSlots<<4 || 2*want > slots ||
		cohorts != want || len(v.cohorts.slots) < minSlots<<4 || 2*want > len(v.cohorts.slots) {
		t.Fatalf("%d subscribers in %d slots, %d cohorts in %d, want %d of each across at least four doublings of %d",
			subscribers, slots, cohorts, len(v.cohorts.slots), want, minSlots)
	}
	// slot words, names[id] and homes[id]; slot words, the key, cohort
	// key and label of each cohort
	held := int64(8*slots + (16+4)*(subscribers+1) + 8*len(v.cohorts.slots) + (16+48+16)*(cohorts+1))
	all, keys := make([][]byte, subscribers), make([][]byte, subscribers)
	for id := 1; id <= subscribers; id++ {
		all[id-1], keys[id-1] = []byte(in.name(uint32(id))), []byte(v.cohorts.names[id])
		held += int64(len(all[id-1]) + len(keys[id-1]) + len(v.labels[id]))
	}
	recs, shardOf := make([]sessionizer.Rec, subscribers), make([]uint32, subscribers)
	e.Settle(all, keys, recs, shardOf)
	for k, r := range recs {
		if r.Sub != uint32(k+1) || r.Cohort != uint32(k+1) || *in.cohortKey(r.Cohort) != (cohort.Key{Region: string(all[k]), Device: "tv", Cap: "hd"}) {
			t.Fatalf("ID %d names %q and cohort %q, which settle as %+v", k+1, all[k], keys[k], r)
		}
	}
	// the tables' spare capacity and the open block's tail come on top
	if bytes < held || bytes > 2*held {
		t.Errorf("InternerStats counts %d bytes, the interner holds at least %d", bytes, held)
	}
	for w := range got {
		last, lastCoh := uint32(0), uint32(0)
		for i, ref := range got[w] {
			if ref.Name != names[w][i] || in.cohortKey(coh[w][i]).Region != names[w][i] {
				t.Fatalf("feeder %d: %q answered as %+v, cohort %d", w, names[w][i], ref, coh[w][i])
			}
			if i%5 == 0 {
				if ref != got[1-w][i] || coh[w][i] != coh[1-w][i] {
					t.Fatalf("%q is %+v, cohort %d through one door, %+v, cohort %d through the other", ref.Name, ref, coh[w][i], got[1-w][i], coh[1-w][i])
				}
				continue // the other feeder may have seen it first
			}
			if ref.ID <= last || coh[w][i] <= lastCoh {
				t.Fatalf("feeder %d: %q got IDs %d, %d after %d, %d: not first-sight order", w, ref.Name, ref.ID, coh[w][i], last, lastCoh)
			}
			last, lastCoh = ref.ID, coh[w][i]
		}
	}
}

// TestBatchLookupMatchesProbe holds settle's lock-free passes to the
// index's one lookup: while another goroutine interns batch after batch,
// the table doubling six times under the reader, every subscriber of a
// batch spread over the whole set — interned, being interned and not
// yet, one of them twice — settles to what a probe under the mutex
// finds for it, and find misses a name nobody interns as the zero
// SubRef.
func TestBatchLookupMatchesProbe(t *testing.T) {
	const total, batch = 320 * 64, 64
	in := newInterner(4)
	names := make([][]byte, total)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("grow-%d", i))
	}
	var grown atomic.Bool
	go func() {
		defer grown.Store(true)
		recs, shardOf := make([]sessionizer.Rec, batch), make([]uint32, batch)
		for lo := 0; lo < total; lo += batch {
			in.settle(names[lo:lo+batch], nil, recs, shardOf)
		}
	}()
	subs := make([][]byte, batch)
	recs, shardOf := make([]sessionizer.Rec, batch), make([]uint32, batch)
	var never [1]sessionizer.SubRef
	checked := 0
	for last := false; !last; {
		last = grown.Load()
		for k := range subs {
			subs[k] = names[(checked+k*331)%total]
		}
		subs[batch-1] = subs[1]
		in.settle(subs, nil, recs, shardOf)
		for k, r := range recs {
			in.mu.Lock()
			id, _ := probe(in.subs.slots, in.subs.names, maphash.Bytes(idSeed, subs[k]), subs[k])
			shard := in.homes[id]
			in.mu.Unlock()
			if id == 0 || r.Sub != id || shardOf[k] != shard || in.name(r.Sub) != string(subs[k]) {
				t.Fatalf("settle(%q) = sub %d on shard %d, a probe under the lock finds ID %d on shard %d", subs[k], r.Sub, shardOf[k], id, shard)
			}
			checked++
		}
		if in.find([][]byte{[]byte("never-interned")}, never[:]); never[0] != (sessionizer.SubRef{}) {
			t.Fatalf("find of a name nobody interns = %+v, want the zero SubRef", never[0])
		}
	}
	if slots := len(in.view.Load().subs.slots); slots != minSlots<<6 {
		t.Fatalf("the table grew to %d slots, want six doublings of %d", slots, minSlots)
	}
	if checked < batch {
		t.Fatalf("%d answers checked; the last batch alone has %d", checked, batch)
	}
}

// TestWarmBatchTakesNoLock: a batch whose identities the engine knows
// settles without the interner's lock through either door — a frame's
// through Settle, a batch of entries through Feed — so both finish while
// another goroutine holds it.
func TestWarmBatchTakesNoLock(t *testing.T) {
	e := New(nil, Config{Shards: 2, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
	defer e.Drain()
	entries := []weblog.Entry{{Subscriber: "sub-a", Region: "eu", Device: "tv", Cap: "hd"}, {Subscriber: "sub-b"},
		{Subscriber: "sub-a", Region: "us"}, {Subscriber: "sub-c", Region: "eu", Device: "tv", Cap: "hd"}}
	subs, keys := make([][]byte, len(entries)), make([][]byte, len(entries))
	for i, en := range entries {
		subs[i], keys[i] = []byte(en.Subscriber), weblog.AppendCohortKey(nil, en.Region, en.Device, en.Cap)
	}
	recs, shardOf := make([]sessionizer.Rec, len(entries)), make([]uint32, len(entries))
	e.Feed(entries)

	e.interner.mu.Lock()
	defer e.interner.mu.Unlock()
	settled := make(chan struct{})
	go func() {
		e.Settle(subs, keys, recs, shardOf)
		e.Feed(entries)
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("a warm batch waits for the interner's lock")
	}
	for i, r := range recs {
		if r.Sub == 0 || (r.Cohort == 0) != (i == 1) || recs[0].Cohort != recs[3].Cohort || recs[0].Cohort == recs[2].Cohort {
			t.Fatalf("rec %d of a warm batch settled as %+v", i, r)
		}
	}
}

// nonMinimal is a cohort suffix as a sender that writes every length in
// three uvarint bytes sends it: the same triple as a canonical key, in
// other bytes.
func nonMinimal(region, device, cp []byte) []byte {
	var b []byte
	for _, s := range [...][]byte{region, device, cp} {
		b = append(append(b, 0x80|byte(len(s))&0x7f, 0x80|byte(len(s)>>7)&0x7f, byte(len(s)>>14)), s...)
	}
	return b
}

// FuzzSubIndex holds both indexes to Go-map oracles over interleaved
// batches of finds and adds through both doors, from four-slot tables so
// that growth runs every few adds: names of 0–300 arbitrary bytes, many
// sharing a prefix with an earlier one, gathered into batches that
// repeat names, mix hits with misses and, added, straddle a doubling;
// some carry a cohort cut from the name, sent now and then with
// non-minimal lengths. Every answer — hit, miss, ID, shard, stored bytes,
// cohort — equals the oracle's, a non-minimal suffix's cohort its
// triple's.
func FuzzSubIndex(f *testing.F) {
	f.Add([]byte{2, 0, 1, 'a', 0, 0, 1, 'b', 1, 0, 1, 'a', 0, 0, 1, 'c', 0, 0, 0, 3, 0, 1, 'c', 9, 1, 1, 'd', 1, 0, 0})
	f.Add([]byte("\x00\x00\x03sub\x02\x00\x03sub\x0a\x02\x01-\x08\x02\x01-\x01\x00\x00\x05\x00\xff" + string(make([]byte, 300))))
	f.Add([]byte("\x00\x00\x01a\x00\x00\x01b\x00\x00\x01c\x00\x00\x01d\x00\x00\x01e\x02\x00\x01f\x00\x00\x01a\x00\x00\x01z\x01\x00\x01f"))
	f.Add([]byte("\x10\x01\x03abc\x30\x01\x03abc\x32\x00\x02xy\x13\x02\x03abc\x32\x03\x03abc\x10\x90\xc8" + string(make([]byte, 200)) +
		"\x32\x90\xc8" + strings.Repeat("z", 200) + "\x13\x00\x00\x31\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const nsh = 3
		in := newInterner(nsh)
		// published with the first name and the first cohort
		in.subs.slots, in.cohorts.slots = make([]atomic.Uint64, 4), make([]atomic.Uint64, 4)
		oracle, cohorts := map[string]uint32{}, map[[3]string]uint32{}
		var seen []string
		check := func(op string, ref sessionizer.SubRef, name string, want uint32) {
			if ref.ID != want || ref.Name != name || ref.Shard != fnvShard(name, nsh) || in.name(ref.ID) != name {
				t.Fatalf("%s(%q) = %+v, oracle has ID %d", op, name, ref, want)
			}
		}
		type rec struct {
			name []byte
			tr   [3]string
			wire []byte // the cohort suffix as sent: nil for none
		}
		var batch []rec
		for len(data) >= 3 {
			// op: bits 0–1 what to do with the batch once this name has
			// joined it (0 gather on, 1 find, 2 settle, 3 digest), bit 2
			// a long name, bit 3 start from a prefix of an earlier name,
			// bit 4 a cohort: the name cut at p into region and device,
			// bit 5 its suffix sent with non-minimal lengths
			op, p, n := data[0], int(data[1]), int(data[2])
			data = data[3:]
			if op&4 != 0 {
				n += 45
			}
			n = min(n, len(data))
			var name []byte
			if op&8 != 0 && len(seen) > 0 {
				prev := seen[p%len(seen)]
				name = append(name, prev[:p%(len(prev)+1)]...)
			}
			name, data = append(name, data[:n]...), data[n:]
			r := rec{name: name}
			if op&16 != 0 {
				cut := p % (len(name) + 1)
				r.tr = [3]string{string(name[:cut]), string(name[cut:]), ""}
				if r.wire = weblog.AppendCohortKey(nil, name[:cut], name[cut:], nil); op&32 != 0 {
					r.wire = nonMinimal(name[:cut], name[cut:], nil)
				}
			}
			if batch = append(batch, r); op&3 == 0 {
				continue
			}
			refs := make([]sessionizer.SubRef, len(batch))
			var cohortIDs []uint32
			switch op & 3 {
			case 1:
				subs := make([][]byte, len(batch))
				for k, r := range batch {
					subs[k] = r.name
				}
				in.find(subs, refs)
				for k, r := range batch {
					if want, known := oracle[string(r.name)]; !known {
						if refs[k] != (sessionizer.SubRef{}) {
							t.Fatalf("find(%q) = %+v, not in the oracle", r.name, refs[k])
						}
					} else {
						check("find", refs[k], string(r.name), want)
					}
				}
				batch = batch[:0]
				continue
			case 2:
				subs, keys := make([][]byte, len(batch)), make([][]byte, len(batch))
				var scratch []byte
				for k, r := range batch {
					subs[k] = r.name
					if r.wire != nil {
						keys[k] = weblog.CanonicalCohortKey(&scratch, r.wire, []byte(r.tr[0]), []byte(r.tr[1]), nil)
					}
				}
				recs, shardOf := make([]sessionizer.Rec, len(batch)), make([]uint32, len(batch))
				in.settle(subs, keys, recs, shardOf)
				for k, r := range recs {
					refs[k] = sessionizer.SubRef{Name: in.name(r.Sub), ID: r.Sub, Shard: shardOf[k]}
					cohortIDs = append(cohortIDs, r.Cohort)
				}
			case 3:
				var d recSlab
				entries := make([]weblog.Entry, len(batch))
				for k, r := range batch {
					entries[k] = weblog.Entry{Subscriber: string(r.name), Region: r.tr[0], Device: r.tr[1], Cap: r.tr[2]}
				}
				in.digest(&d, entries)
				for k, r := range d.recs {
					refs[k] = sessionizer.SubRef{Name: in.name(r.Sub), ID: r.Sub, Shard: d.shardOf[k]}
					cohortIDs = append(cohortIDs, r.Cohort)
				}
			}
			for k, r := range batch {
				want, known := oracle[string(r.name)]
				if !known {
					want = uint32(len(oracle) + 1)
					oracle[string(r.name)] = want
					seen = append(seen, string(r.name))
				}
				check("add", refs[k], string(r.name), want)
			}
			for k, r := range batch { // the cohorts' locked pass follows the subscribers'
				want, known := cohorts[r.tr]
				if !known && r.tr != ([3]string{}) {
					want = uint32(len(cohorts) + 1)
					cohorts[r.tr] = want
				}
				if got := cohortIDs[k]; got != want || *in.cohortKey(got) != (cohort.Key{Region: r.tr[0], Device: r.tr[1], Cap: r.tr[2]}) {
					t.Fatalf("cohort %q (sent as %x) is %d, key %+v; oracle has ID %d", r.tr, r.wire, got, *in.cohortKey(got), want)
				}
			}
			batch = batch[:0]
		}
		if got := len(in.subs.names) - 1; got != len(oracle) {
			t.Fatalf("%d subscribers interned, oracle has %d", got, len(oracle))
		}
		if got := len(in.keys) - 1; got != len(cohorts) {
			t.Fatalf("%d cohorts interned, oracle has %d", got, len(cohorts))
		}
		var all [][]byte
		for name := range oracle {
			all = append(all, []byte(name))
		}
		refs := make([]sessionizer.SubRef, len(all))
		in.find(all, refs)
		for k, b := range all {
			if refs[k].ID == 0 {
				t.Fatalf("%q (ID %d) misses at the end", b, oracle[string(b)])
			}
			check("find", refs[k], string(b), oracle[string(b)])
		}
	})
}

// BenchmarkResolveWide is the wire door's subscriber lookup over an
// index beyond the core's cache: 2¹⁷ interned names (wide_open's 10⁵
// subscribers) and 2²⁰, frames of 256 drawn at random. "probe" resolves
// a frame name by name — view, hash, probe, next name; "batch" is
// settle's two passes. ns/op is per frame.
func BenchmarkResolveWide(b *testing.B) {
	const frame, frames = 256, 1 << 12
	for _, total := range []int{1 << 17, 1 << 20} {
		in := newInterner(2)
		names := make([][]byte, total)
		for i := range names {
			names[i] = []byte(fmt.Sprintf("subscriber-%07d", i))
		}
		refs := make([]sessionizer.SubRef, frame)
		recs, shardOf := make([]sessionizer.Rec, frame), make([]uint32, frame)
		for lo := 0; lo < total; lo += frame {
			in.settle(names[lo:lo+frame], nil, recs, shardOf)
		}
		rng := rand.New(rand.NewSource(1))
		batches := make([][][]byte, frames)
		for i := range batches {
			batches[i] = make([][]byte, frame)
			for k := range batches[i] {
				batches[i][k] = names[rng.Intn(total)]
			}
		}
		// each sub-benchmark checks its own last frame: a -bench filter
		// may run either alone
		b.Run(fmt.Sprintf("names=%d/probe", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k, name := range batches[i%frames] {
					v := in.view.Load()
					id, _ := probe(v.subs.slots, v.subs.names[:v.nSubs.Load()], maphash.Bytes(idSeed, name), name)
					refs[k] = sessionizer.SubRef{Name: v.subs.names[id], ID: id, Shard: v.homes[id]}
				}
			}
			for k, ref := range refs {
				if ref.ID == 0 {
					b.Fatalf("name %d of the last frame missed", k)
				}
			}
		})
		b.Run(fmt.Sprintf("names=%d/batch", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.settle(batches[i%frames], nil, recs, shardOf)
			}
			for k, r := range recs {
				if r.Sub == 0 {
					b.Fatalf("name %d of the last frame missed", k)
				}
			}
		})
	}
}
