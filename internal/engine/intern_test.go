package engine

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// TestSubIndexRacesInterners is the subscriber index under the race
// detector: readers Find batches of names — both feeders', one name
// twice — out of a set that two feeders are still interning — one
// through Intern, one through Feed, every fifth name offered by both —
// while the table doubles five times under them. A hit carries the ID,
// home shard and string lookupSub assigned, whichever table and view the
// batch happened to load; a name whose feeder had returned before the
// batch began must hit; a miss is settled by a probe under the lock, and
// what that finds the next Find finds too. IDs come out dense and, per
// feeder, in the order it offered its names.
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
	// got[w][:done[w]] is what feeder w was answered, readable after
	// loading done[w]
	var got [2][perFeeder]sessionizer.SubRef
	var done [2]atomic.Int32

	var feeders, readers sync.WaitGroup
	feeders.Add(2)
	go func() { // the wire door
		defer feeders.Done()
		subs := make([][]byte, batch)
		for lo := 0; lo < perFeeder; lo += batch {
			for k := range subs {
				subs[k] = []byte(names[0][lo+k])
			}
			e.Intern(subs, got[0][lo:lo+batch], nil, nil)
			done[0].Store(int32(lo + batch))
		}
	}()
	go func() { // an Entry door
		defer feeders.Done()
		entries := make([]weblog.Entry, batch)
		subs := make([][]byte, batch)
		for lo := 0; lo < perFeeder; lo += batch {
			for k := range entries {
				entries[k] = weblog.Entry{Subscriber: names[1][lo+k], Timestamp: float64(lo + k)}
				subs[k] = []byte(names[1][lo+k])
			}
			e.Feed(entries)
			e.Find(subs, got[1][lo:lo+batch])
			for k, ref := range got[1][lo : lo+batch] {
				if ref.ID == 0 {
					t.Errorf("%q misses after the Feed that carried it", subs[k])
					return
				}
			}
			done[1].Store(int32(lo + batch))
		}
	}()

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
						id, _ := probe(in.slots, in.names, maphash.String(subSeed, name), name)
						in.mu.Unlock()
						if e.Find(subs[k:k+1], again[:]); id != 0 && again[0].ID != id {
							t.Errorf("Find(%q) = %+v after the locked probe found ID %d", name, again[0], id)
							return
						}
					}
				}
			}
		}(r)
	}
	feeders.Wait()
	close(stop)
	readers.Wait()

	subscribers, slots, bytes := e.InternerStats()
	if want := 2*perFeeder - perFeeder/5; subscribers != want || slots < minSubSlots<<4 || 2*want > slots {
		t.Fatalf("%d subscribers in %d slots, want %d across at least four doublings of %d", subscribers, slots, want, minSubSlots)
	}
	held := int64(8*slots + (16+4)*(subscribers+1)) // slot words, names[id] and homes[id]
	all, refs := make([][]byte, subscribers), make([]sessionizer.SubRef, subscribers)
	for id := 1; id <= subscribers; id++ {
		all[id-1] = []byte(in.name(uint32(id)))
		held += int64(len(all[id-1]))
	}
	e.Find(all, refs)
	for k, ref := range refs {
		if ref.ID != uint32(k+1) {
			t.Fatalf("ID %d names %q, which finds %+v", k+1, all[k], ref)
		}
	}
	// the tables' spare capacity and the open block's tail come on top
	if bytes < held || bytes > 2*held {
		t.Errorf("InternerStats counts %d bytes, the interner holds at least %d", bytes, held)
	}
	for w := range got {
		last := uint32(0)
		for i, ref := range got[w] {
			if ref.Name != names[w][i] {
				t.Fatalf("feeder %d: %q answered as %+v", w, names[w][i], ref)
			}
			if i%5 == 0 {
				if ref != got[1-w][i] {
					t.Fatalf("%q is %+v through one door, %+v through the other", ref.Name, ref, got[1-w][i])
				}
				continue // the other feeder may have seen it first
			}
			if ref.ID <= last {
				t.Fatalf("feeder %d: %q got ID %d after ID %d: not first-sight order", w, ref.Name, ref.ID, last)
			}
			last = ref.ID
		}
	}
}

// TestBatchLookupMatchesProbe holds find's two passes to the index's
// one lookup: while another goroutine interns batch after batch, the
// table doubling six times under the reader, every hit in a batch of
// names spread over the whole set — interned, being interned and not
// yet, one of them twice — equals what lookupSub answers for it under
// the mutex, and a name nobody interns misses as the zero SubRef.
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
		refs := make([]sessionizer.SubRef, batch)
		for lo := 0; lo < total; lo += batch {
			in.intern(names[lo:lo+batch], refs, nil, nil)
		}
	}()
	subs, refs := make([][]byte, batch), make([]sessionizer.SubRef, batch)
	hits := 0
	for last := false; !last; {
		last = grown.Load()
		for k := range subs {
			subs[k] = names[(hits+k*331)%total]
		}
		subs[0], subs[batch-1] = []byte("never-interned"), subs[1]
		in.find(subs, refs)
		for k, ref := range refs {
			if ref.ID == 0 {
				if ref != (sessionizer.SubRef{}) {
					t.Fatalf("find(%q) missed as %+v, want the zero SubRef", subs[k], ref)
				}
				continue
			}
			in.mu.Lock()
			want := lookupSub(in, maphash.Bytes(subSeed, subs[k]), subs[k])
			in.mu.Unlock()
			if k == 0 || ref != want {
				t.Fatalf("find(%q) = %+v, lookupSub under the lock answers %+v", subs[k], ref, want)
			}
			hits++
		}
	}
	if slots := len(in.view.Load().slots); slots != minSubSlots<<6 {
		t.Fatalf("the table grew to %d slots, want six doublings of %d", slots, minSubSlots)
	}
	if hits < batch-2 {
		t.Fatalf("%d hits checked; the last batch alone has %d", hits, batch-2)
	}
}

// FuzzSubIndex holds the index to a map[string]uint32 oracle over
// interleaved batches of finds and adds through both doors, from a
// four-slot table so that growth runs every few adds: names of 0–300
// arbitrary bytes, many sharing a prefix with an earlier one, gathered
// into batches that repeat names, mix hits with misses and, added,
// straddle a doubling. Every answer — hit, miss, ID, shard, stored
// bytes — equals the oracle's.
func FuzzSubIndex(f *testing.F) {
	f.Add([]byte{2, 0, 1, 'a', 0, 0, 1, 'b', 1, 0, 1, 'a', 0, 0, 1, 'c', 0, 0, 0, 3, 0, 1, 'c', 9, 1, 1, 'd', 1, 0, 0})
	f.Add([]byte("\x00\x00\x03sub\x02\x00\x03sub\x0a\x02\x01-\x08\x02\x01-\x01\x00\x00\x05\x00\xff" + string(make([]byte, 300))))
	f.Add([]byte("\x00\x00\x01a\x00\x00\x01b\x00\x00\x01c\x00\x00\x01d\x00\x00\x01e\x02\x00\x01f\x00\x00\x01a\x00\x00\x01z\x01\x00\x01f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const nsh = 3
		in := newInterner(nsh)
		in.slots = make([]atomic.Uint64, 4) // published with the first name
		oracle := map[string]uint32{}
		var seen []string
		check := func(op string, ref sessionizer.SubRef, name string, want uint32) {
			if ref.ID != want || ref.Name != name || ref.Shard != fnvShard(name, nsh) || in.name(ref.ID) != name {
				t.Fatalf("%s(%q) = %+v, oracle has ID %d", op, name, ref, want)
			}
		}
		var batch [][]byte
		for len(data) >= 3 {
			// op: bits 0–1 what to do with the batch once this name has
			// joined it (0 gather on, 1 find, 2 intern, 3 digest), bit 2
			// a long name, bit 3 start from a prefix of an earlier name
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
			if batch = append(batch, name); op&3 == 0 {
				continue
			}
			refs := make([]sessionizer.SubRef, len(batch))
			switch op & 3 {
			case 1:
				in.find(batch, refs)
				for k, b := range batch {
					if want, known := oracle[string(b)]; !known {
						if refs[k] != (sessionizer.SubRef{}) {
							t.Fatalf("find(%q) = %+v, not in the oracle", b, refs[k])
						}
					} else {
						check("find", refs[k], string(b), want)
					}
				}
				batch = batch[:0]
				continue
			case 2:
				in.intern(batch, refs, nil, nil)
			case 3:
				var d digested
				entries := make([]weblog.Entry, len(batch))
				for k, b := range batch {
					entries[k].Subscriber = string(b)
				}
				in.digest(&d, entries)
				for k, id := range d.recs {
					refs[k] = sessionizer.SubRef{Name: in.name(id.Sub), ID: id.Sub, Shard: d.shardOf[k]}
				}
			}
			for k, b := range batch {
				want, known := oracle[string(b)]
				if !known {
					want = uint32(len(oracle) + 1)
					oracle[string(b)] = want
					seen = append(seen, string(b))
				}
				check("add", refs[k], string(b), want)
			}
			batch = batch[:0]
		}
		if got := len(in.names) - 1; got != len(oracle) {
			t.Fatalf("%d subscribers interned, oracle has %d", got, len(oracle))
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
// a frame name by name as the door used to — view, hash, probe, next
// name; "batch" is find's two passes. ns/op is per frame.
func BenchmarkResolveWide(b *testing.B) {
	const frame, frames = 256, 1 << 12
	for _, total := range []int{1 << 17, 1 << 20} {
		in := newInterner(2)
		names := make([][]byte, total)
		for i := range names {
			names[i] = []byte(fmt.Sprintf("subscriber-%07d", i))
		}
		refs := make([]sessionizer.SubRef, frame)
		for lo := 0; lo < total; lo += frame {
			in.intern(names[lo:lo+frame], refs, nil, nil)
		}
		rng := rand.New(rand.NewSource(1))
		batches := make([][][]byte, frames)
		for i := range batches {
			batches[i] = make([][]byte, frame)
			for k := range batches[i] {
				batches[i][k] = names[rng.Intn(total)]
			}
		}
		b.Run(fmt.Sprintf("names=%d/probe", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k, name := range batches[i%frames] {
					v := in.view.Load()
					id, _ := probe(v.slots, v.names, maphash.Bytes(subSeed, name), name)
					refs[k] = sessionizer.SubRef{Name: v.names[id], ID: id, Shard: v.homes[id]}
				}
			}
		})
		b.Run(fmt.Sprintf("names=%d/batch", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.find(batches[i%frames], refs)
			}
		})
		for k, ref := range refs {
			if ref.ID == 0 {
				b.Fatalf("name %d of the last frame missed", k)
			}
		}
	}
}
