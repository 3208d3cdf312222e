package engine

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"testing"

	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// TestSubIndexRacesInterners is the subscriber index under the race
// detector: readers Find names out of a set that two feeders are still
// interning — one through Intern, one through Feed, every fifth name
// offered by both — while the table doubles five times under them. A hit
// carries the ID, home shard and string lookupSub assigned, whichever
// table and view the reader happened to load; a name whose feeder has
// returned must hit; a miss is settled by a probe under the lock, and
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
		for lo := 0; lo < perFeeder; lo += batch {
			for k := range entries {
				entries[k] = weblog.Entry{Subscriber: names[1][lo+k], Timestamp: float64(lo + k)}
			}
			e.Feed(entries)
			for k := range entries {
				ref, ok := e.Find([]byte(names[1][lo+k]))
				if !ok {
					t.Errorf("%q misses after the Feed that carried it", names[1][lo+k])
					return
				}
				got[1][lo+k] = ref
			}
			done[1].Store(int32(lo + batch))
		}
	}()

	stop := make(chan struct{})
	for r := 0; r < finders; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := r; ; n += 7 {
				select {
				case <-stop:
					return
				default:
				}
				w, i := n&1, (n>>1)%perFeeder
				name := names[w][i]
				fed := int(done[w].Load()) > i
				ref, ok := e.Find([]byte(name))
				switch {
				case ok:
					if ref.Name != name || ref.Shard != fnvShard(name, nsh) || in.name(ref.ID) != name || (fed && ref != got[w][i]) {
						t.Errorf("Find(%q) = %+v (fed: %v, answered %+v)", name, ref, fed, got[w][i])
						return
					}
				case fed:
					t.Errorf("Find(%q) misses after its feeder returned", name)
					return
				default:
					in.mu.Lock()
					id, _ := probe(in.slots, in.names, maphash.String(subSeed, name), name)
					in.mu.Unlock()
					if again, ok := e.Find([]byte(name)); id != 0 && (!ok || again.ID != id) {
						t.Errorf("Find(%q) = %+v, %v after the locked probe found ID %d", name, again, ok, id)
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
	if want := 2*perFeeder - perFeeder/5; subscribers != want || slots < minSubSlots<<4 || 2*want > slots {
		t.Fatalf("%d subscribers in %d slots, want %d across at least four doublings of %d", subscribers, slots, want, minSubSlots)
	}
	held := int64(8*slots + (16+4)*(subscribers+1)) // slot words, names[id] and homes[id]
	for id := 1; id <= subscribers; id++ {
		name := in.name(uint32(id))
		if ref, ok := e.Find([]byte(name)); !ok || ref.ID != uint32(id) {
			t.Fatalf("ID %d names %q, which finds %+v, %v", id, name, ref, ok)
		}
		held += int64(len(name))
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

// FuzzSubIndex holds the index to a map[string]uint32 oracle over
// interleaved finds and adds through both doors, from a four-slot table
// so that growth runs every few adds: names of 0–300 arbitrary bytes,
// many sharing a prefix with an earlier one. Every answer — hit, miss,
// ID, shard, stored bytes — equals the oracle's.
func FuzzSubIndex(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 1, 'a', 0, 0, 1, 'a', 2, 0, 2, 'a', 'b', 9, 1, 1, 'c', 0, 0, 0})
	f.Add([]byte("\x01\x00\x03sub\x02\x00\x03sub\x0a\x02\x01-\x08\x02\x01-\x05\x00\xff" + string(make([]byte, 300))))
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
		for len(data) >= 3 {
			// op: bits 0–1 what to do, bit 2 a long name, bit 3 start
			// from a prefix of an earlier name
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
			want, known := oracle[string(name)]
			if op&3 == 0 {
				ref, ok := in.find(name)
				if ok != known {
					t.Fatalf("find(%q) hit: %v, oracle: %v", name, ok, known)
				}
				if ok {
					check("find", ref, string(name), want)
				}
				continue
			}
			if !known {
				want = uint32(len(oracle) + 1)
				oracle[string(name)] = want
				seen = append(seen, string(name))
			}
			var ref [1]sessionizer.SubRef
			if op&3 == 1 {
				in.intern([][]byte{name}, ref[:], nil, nil)
			} else {
				var d digested
				in.digest(&d, []weblog.Entry{{Subscriber: string(name)}})
				ref[0] = sessionizer.SubRef{Name: in.name(d.recs[0].Sub), ID: d.recs[0].Sub, Shard: d.shardOf[0]}
			}
			check("add", ref[0], string(name), want)
		}
		if got := len(in.names) - 1; got != len(oracle) {
			t.Fatalf("%d subscribers interned, oracle has %d", got, len(oracle))
		}
		for name, want := range oracle {
			ref, ok := in.find([]byte(name))
			if !ok {
				t.Fatalf("%q (ID %d) misses at the end", name, want)
			}
			check("find", ref, name, want)
		}
	})
}
