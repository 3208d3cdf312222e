package flight

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/stats"
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
// header slot, and the strings are the caller's.
func TestRetainSteadyStateZeroAlloc(t *testing.T) {
	rec := New(Config{Shards: 1, MaxBytes: 256 << 10})
	sh := rec.Shard(0)
	a := assessment("sub", 10, stalledReport(45), videoChunks(10, 45, 4))
	a.Report.StallConf, a.Report.RepConf = 0.3, 0.3 // an exemplar of both models
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

// lookupScan is the linear scan the index replaced: the oldest live
// header with this exact subscriber and start. The caller holds s.mu.
func (s *ShardRecorder) lookupScan(subscriber string, start float64) (uint64, *header) {
	return s.lookupScanAfter(subscriber, start, s.hdrs.head-1)
}

// lookupScanAfter is lookupScan over the sessions newer than seq.
func (s *ShardRecorder) lookupScanAfter(subscriber string, start float64, seq uint64) (uint64, *header) {
	for seq++; seq < s.hdrs.tail; seq++ {
		if h := s.hdrs.at(seq); h.start == start && h.subscriber == subscriber {
			return seq, h
		}
	}
	return 0, nil
}

// TestIndexMatchesLinearScan drives two shards with a seeded stream of
// retentions past a small budget (so every few steps evicts), label
// promotions that grow a session and evict in turn, and lookups, over
// few subscribers and starts so keys repeat among the live sessions;
// −0 and +0 are both drawn, and NaN. The first lookups come only after
// the shards are full and evicting, so each index is built from a
// populated shard. From then on, after every step, every key's lookup
// through the index returns the linear scan's session (the oldest of
// its key), and the index chains exactly the live sessions with a
// number for a start, each key's from its oldest to its newest.
func TestIndexMatchesLinearScan(t *testing.T) {
	r := stats.NewRand(29)
	rec := New(Config{Shards: 2, SampleN: -1, MaxBytes: 24 << 10})
	subs := []string{"sub-a", "sub-b", "sub-c", "sub-d", "sub-e"}
	starts := []float64{0, math.Copysign(0, -1), 1, 2.5, 17, 1e9, math.NaN()}
	const quiet = 300 // steps of retention alone before the first lookup
	found, repeated := 0, 0
	for step := 0; step < 4000; step++ {
		sub, start := subs[r.Intn(len(subs))], starts[r.Intn(len(starts))]
		if r.Intn(4) == 0 && step >= quiet {
			rec.ObserveOutcome(sub, start, start+60, [2]string{"stall", "rep"}[r.Intn(2)], "labeled wrong")
		} else {
			rep := stalledReport(1 + r.Intn(60))
			rec.Shard(r.Intn(2)).Retain(assessment(sub, start, rep, videoChunks(0, rep.Chunks, 4)), 1, ReasonStalled)
		}
		if step < quiet {
			continue
		}
		for _, s := range rec.shards {
			s.mu.Lock()
			for _, sub := range subs {
				for _, start := range starts {
					seq, h := s.lookup(sub, start)
					wantSeq, want := s.lookupScan(sub, start)
					if h != want || seq != wantSeq {
						t.Fatalf("step %d shard %d key %s/%v: index gives seq %d (%p), scan %d (%p)", step, s.shard, sub, start, seq, h, wantSeq, want)
					}
					if h != nil {
						found++
						if _, later := s.lookupScanAfter(sub, start, seq); later != nil {
							repeated++
						}
					}
				}
			}
			indexed, numbered := 0, 0
			for k, e := range s.index {
				seq := e.first
				for ; ; seq += uint64(s.hdrs.at(seq).next) {
					if h := s.hdrs.at(seq); seq < s.hdrs.head || h.start != k.start || h.subscriber != k.subscriber {
						t.Fatalf("step %d shard %d key %v: chain reaches seq %d, not a live session of the key", step, s.shard, k, seq)
					}
					indexed++
					if s.hdrs.at(seq).next == 0 {
						break
					}
				}
				if seq != e.last {
					t.Fatalf("step %d shard %d key %v: chain ends at %d, index names %d", step, s.shard, k, seq, e.last)
				}
			}
			for seq := s.hdrs.head; seq < s.hdrs.tail; seq++ {
				if st := s.hdrs.at(seq).start; st == st {
					numbered++
				}
			}
			if indexed != numbered {
				t.Fatalf("step %d shard %d: index chains %d sessions, %d live with a number for a start", step, s.shard, indexed, numbered)
			}
			s.mu.Unlock()
		}
	}
	if m := rec.Metrics(); m.Evicted < 1000 || repeated == 0 || m.ByReason["labeled_wrong"] == 0 {
		t.Errorf("stream too tame: %d evicted, %d hits (%d of a repeated key), %d promoted", m.Evicted, found, repeated, m.ByReason["labeled_wrong"])
	}
}

// TestFlightReadersRaceRetention: index renders, drill-downs, exemplar
// reads and label promotions run against a shard whose worker is
// retaining past the budget — so the space every reader copies from is
// being reused under it. Run with -race. Whatever a reader gets is one
// whole session: a drill-down's chunk events carry the pattern of the
// session its header names.
func TestFlightReadersRaceRetention(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1, MaxBytes: 32 << 10})
	rec.maxEvents = 16
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
		checkExemplarRead(t, rec.Exemplars())
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

// checkExemplarRead holds one exemplar read to its shape: every list
// non-empty, at most exemplarsPerKey long, of well-formed IDs, none of
// them twice.
func checkExemplarRead(t *testing.T, ex map[string][]string) {
	t.Helper()
	for key, ids := range ex {
		if len(ids) == 0 || len(ids) > exemplarsPerKey {
			t.Errorf("%s: %d exemplars", key, len(ids))
		}
		seen := map[string]bool{}
		for _, id := range ids {
			if id == "" || seen[id] {
				t.Errorf("%s: exemplars %q hold an empty or repeated id", key, ids)
			}
			seen[id] = true
		}
	}
}

// TestFlightExemplarsRaceRetention: exemplar reads run against two
// shard workers retaining past their budgets — sessions in two cohorts
// and in none, some unsure of one model — and a label goroutine
// promoting retained sessions for both models. Run with -race. Every
// read is well formed, and once the writers stop it links each model
// key to sessions that are still retained.
func TestFlightExemplarsRaceRetention(t *testing.T) {
	rec := New(Config{Shards: 2, SampleN: -1, MaxBytes: 16 << 10})
	cohorts := []string{"eu-west/mobile/50", "us-east/tv/-", ""}
	const perShard = 3000
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for shard := 0; shard < 2; shard++ {
		writers.Add(1)
		go func(shard int) {
			defer writers.Done()
			sh := rec.Shard(shard)
			for i := 0; i < perShard; i++ {
				rep := stalledReport(4)
				switch i % 5 {
				case 1:
					rep.StallConf = 0.3
				case 2:
					rep.RepConf = 0.3
				}
				a := assessment(fmt.Sprintf("sub-%d-%d", shard, i%11), float64(i), rep, videoChunks(float64(i), 4, 1))
				a.Cohort = cohorts[i%len(cohorts)]
				assess(sh, a)
			}
		}(shard)
	}
	readers.Add(2)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			shard, at := i%2, (i/2)%perShard
			model := [2]string{"stall", "rep"}[i%2]
			rec.ObserveOutcome(fmt.Sprintf("sub-%d-%d", shard, at%11), float64(at), float64(at)+60, model, "wrong")
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkExemplarRead(t, rec.Exemplars())
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	ex := rec.Exemplars()
	checkExemplarRead(t, ex)
	for _, key := range []string{"eu-west/mobile/50", "us-east/tv/-", "model/stall", "model/rep"} {
		if len(ex[key]) != exemplarsPerKey {
			t.Errorf("%s: exemplars %q, want %d", key, ex[key], exemplarsPerKey)
		}
		for _, id := range ex[key] {
			slash := strings.LastIndex(id, "/")
			start, err := strconv.ParseFloat(id[slash+1:], 64)
			if err != nil || rec.Get(id[:slash], start) == nil {
				t.Errorf("%s: exemplar %q does not resolve", key, id)
			}
		}
	}
	if _, ok := ex[""]; ok {
		t.Error("sessions without a cohort are read under the empty key")
	}
}
