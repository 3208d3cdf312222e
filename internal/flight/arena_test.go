package flight

import (
	"fmt"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
)

// TestFifoSeamsAndReuse drives the segmented store the way the recorder
// does — variable-length extends at the tail, releases at the head —
// with a segment short enough that most writes cross a seam: every
// value reads back from its position, and once the live span stops
// growing no further segment is cut.
func TestFifoSeamsAndReuse(t *testing.T) {
	f := fifo[float64]{segLen: 8}
	type span struct {
		pos uint64
		n   int
	}
	var live []span
	held := 0
	segsAtFull := 0
	for i := 0; i < 400; i++ {
		n := i % 21 // 0..20: shorter than, equal to and longer than a segment
		pos := f.extend(n)
		w := floatWriter{f: &f, pos: pos}
		for k := 0; k < n; k++ {
			w.put(float64(pos) + float64(k))
		}
		live = append(live, span{pos, n})
		for held += n; held > 64; held -= live[0].n {
			f.release(live[0].pos + uint64(live[0].n))
			live = live[1:]
		}
		if f.head != live[0].pos && held > 0 {
			t.Fatalf("step %d: head %d, oldest live span starts at %d", i, f.head, live[0].pos)
		}
		for _, s := range live {
			got := make([]float64, s.n)
			f.read(got, s.pos)
			for k, v := range got {
				if v != float64(s.pos)+float64(k) {
					t.Fatalf("step %d: position %d reads %v", i, s.pos+uint64(k), v)
				}
			}
		}
		if total := len(f.segs) + len(f.spare); i == 100 {
			segsAtFull = total
		} else if i > 100 && total != segsAtFull {
			t.Fatalf("step %d: %d segments cut, %d when the span first filled", i, total, segsAtFull)
		}
	}
	// 84 live floats at most (64 held, 20 arriving) and a partly used
	// segment at either end
	if want := (64+20+7)/8 + 2; segsAtFull > want {
		t.Errorf("%d segments of 8 cut for a live span of at most 84 floats, want ≤ %d", segsAtFull, want)
	}
}

// everyPolicy returns the reason masks a retention can carry: each
// policy on its own and all of them at once.
func everyPolicy() []Reason {
	all := Reason(0)
	var out []Reason
	for i := 0; i < NumReasons; i++ {
		out = append(out, 1<<i)
		all |= 1 << i
	}
	return append(out, all)
}

// TestRetainSteadyStateZeroAlloc: a recorder at its budget retains
// without allocating, whatever policies matched — the chunk records and
// both vectors go into reused float segments, the header into a reused
// header slot, the strings are the caller's, and the exemplar lists
// live in the map by value.
func TestRetainSteadyStateZeroAlloc(t *testing.T) {
	rec := New(Config{Shards: 1, MaxBytes: 256 << 10})
	sh := rec.Shard(0)
	a := assessment("sub", 10, stalledReport(45), videoChunks(10, 45, 4))
	a.Report.StallConf, a.Report.RepConf = 0.3, 0.3 // registers under both model keys
	a.StallProj, a.RepProj = make([]float64, 9), make([]float64, 14)
	policies := everyPolicy()
	k := 0
	retain := func() {
		a.Start++ // distinct sessions, same strings
		sh.Retain(a, 1+float64(k%5), policies[k%len(policies)])
		k++
	}
	for rec.Metrics().Evicted < 2*rec.Metrics().Resident+1 {
		retain() // past the budget, and once more around both stores
	}
	if allocs := testing.AllocsPerRun(2000, retain); allocs != 0 {
		t.Errorf("a retention at the budget allocates %v objects, want 0", allocs)
	}
	m := rec.Metrics()
	if m.Bytes > m.CapacityBytes || m.Resident != m.Retained-m.Evicted {
		t.Errorf("after the run: %d bytes of %d, resident %d, retained %d, evicted %d", m.Bytes, m.CapacityBytes, m.Resident, m.Retained, m.Evicted)
	}
	if got := rec.Get("sub", a.Start); got == nil || len(got.Timeline) < 45 {
		t.Errorf("newest session does not drill down: %+v", got)
	}
}

// TestFlightReadersRaceRetention: index renders, drill-downs, exemplar
// reads and label promotions run against a shard whose worker is
// retaining past the budget — so the space every reader copies from is
// being reused under it. Run with -race. Whatever a reader gets is one
// whole session: a drill-down's chunk events carry the pattern of the
// session its header names.
func TestFlightReadersRaceRetention(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1, MaxBytes: 32 << 10, MaxEvents: 16})
	rec.SetAttributor(func(stallProj, repProj []float64, k int) (stall, rep []core.FeatureAttribution) {
		if len(stallProj) != 3 || stallProj[1] != stallProj[0] || repProj != nil {
			t.Errorf("attributor handed vectors %v %v of no one session", stallProj, repProj)
		}
		return nil, nil
	})
	sh := rec.Shard(0)
	const sessions = 4000
	newest := make(chan int, 1)
	var readers sync.WaitGroup
	stop := make(chan struct{})
	latest := func() int {
		select {
		case i := <-newest:
			return i
		default:
			return -1
		}
	}
	reader := func(read func(i int)) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i := latest(); i >= 0 {
					last = i
				}
				read(last)
			}
		}()
	}
	reader(func(i int) {
		got := rec.Get(fmt.Sprintf("sub-%d", i%7), float64(i))
		if got == nil {
			return // evicted since
		}
		chunks := 0
		for _, ev := range got.Timeline {
			if ev.Kind == "chunk" {
				chunks++
				if ev.SizeKB != float64(i) {
					t.Errorf("session %d drills down to a chunk of session %v", i, ev.SizeKB)
					return
				}
			}
		}
		if want := min(3+i%20, 16); chunks != want {
			t.Errorf("session %d drills down to %d chunk events, want %d", i, chunks, want)
		}
	})
	reader(func(i int) {
		sn := rec.Snapshot()
		for _, e := range sn.Retained {
			if e.ID != sessionID(e.Subscriber, e.Start) || e.Chunks != 3+int(e.Start)%20 {
				t.Errorf("index row torn: %+v", e)
				return
			}
		}
		rec.ChromeTrace(fmt.Sprintf("sub-%d", i%7), float64(i))
	})
	reader(func(i int) {
		rec.ObserveOutcome(fmt.Sprintf("sub-%d", i%7), float64(i), float64(i)+1, "stall", "wrong")
		for _, id := range rec.ExemplarIDs("eu-west/mobile/50") {
			if id == "" {
				t.Error("empty exemplar id")
			}
		}
		rec.ModelExemplars("stall")
	})

	for i := 0; i < sessions; i++ {
		n := 3 + i%20
		chunks := make([]features.ChunkObs, n)
		for c := range chunks {
			chunks[c] = features.ChunkObs{Time: float64(i) + float64(c), SizeKB: float64(i), DurationSec: 0.5}
		}
		a := assessment(fmt.Sprintf("sub-%d", i%7), float64(i), stalledReport(n), chunks)
		a.StallProj, a.RepProj = []float64{float64(i), float64(i), 1}, nil
		assess(sh, a)
		select {
		case newest <- i:
		default:
		}
	}
	close(stop)
	readers.Wait()
	m := rec.Metrics()
	if m.Evicted == 0 || m.Bytes > m.CapacityBytes || m.Resident != m.Retained-m.Evicted {
		t.Errorf("after the run: %+v", m)
	}
}
