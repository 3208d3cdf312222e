package engine_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"vqoe/internal/engine"
	"vqoe/internal/obs"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/trace_stream.golden from this build")

// TestTraceStreamPinned holds the merged lifecycle trace — what
// /debug/trace serves — to the stream recorded before the shard
// started batching its events into the ring once per message: every
// event's kind, shard, subscriber, times and chunk count, and each
// shard's Seq order. The stream is fed through synchronous Ingest
// calls at four shards, so each shard sees its messages in a fixed
// order and the merged stream is deterministic.
func TestTraceStreamPinned(t *testing.T) {
	fw, live := fixtures(t)
	ob := obs.NewObserver(4, 1<<15) // rings large enough to keep every event
	eng := engine.New(fw, engine.Config{Shards: 4, Obs: ob}, nil)
	for lo := 0; lo < len(live.Entries); lo += 300 {
		eng.Ingest(live.Entries[lo:min(lo+300, len(live.Entries))])
	}
	eng.Drain()

	// the close path's three stages are each one observation per closed
	// batch, so their histograms count the same thing on every shard
	for shard, st := range ob.StageSnapshots() {
		feat, forest, cusum := st[obs.StageFeaturize].Count, st[obs.StageForest].Count, st[obs.StageCUSUM].Count
		if feat == 0 || feat != forest || feat != cusum {
			t.Errorf("shard %d: %d featurize, %d forest_predict, %d cusum observations", shard, feat, forest, cusum)
		}
	}

	var got bytes.Buffer
	for _, ev := range ob.TraceEvents() {
		fmt.Fprintf(&got, "%d %d %s %s ts=%v start=%v end=%v chunks=%d\n",
			ev.Shard, ev.Seq, ev.Kind, ev.Subscriber, ev.TS, ev.Start, ev.End, ev.Chunks)
	}
	const golden = "testdata/trace_stream.golden"
	if *updateTrace {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("trace stream diverges at event %d:\n got  %s\n want %s", i, gl[i], wl[i])
		}
	}
	t.Fatalf("trace stream has %d events, golden %d", len(gl)-1, len(wl)-1)
}

// TestEachReportTracedOnce: the lifecycle trace holds exactly one
// report event per assessed session, the session the report names, and
// no more report events than reports emitted.
func TestEachReportTracedOnce(t *testing.T) {
	fw, live := fixtures(t)
	ob := obs.NewObserver(4, 1<<15) // rings large enough to keep every event
	eng := engine.New(fw, engine.Config{Shards: 4, Obs: ob}, nil)
	var reports []engine.Report
	for lo := 0; lo < len(live.Entries); lo += 300 {
		reps, _ := eng.Ingest(live.Entries[lo:min(lo+300, len(live.Entries))])
		reports = append(reports, reps...)
	}
	reports = append(reports, eng.Drain()...)
	if len(reports) == 0 {
		t.Fatal("fixture emitted no reports")
	}

	type session struct {
		sub        string
		start, end float64
		chunks     int
	}
	traced := map[session]int{}
	n := 0
	for _, ev := range ob.TraceEvents() {
		if ev.Kind == obs.EvReport {
			traced[session{ev.Subscriber, ev.Start, ev.End, int(ev.Chunks)}]++
			n++
		}
	}
	if n != len(reports) {
		t.Errorf("%d report events traced, %d reports emitted", n, len(reports))
	}
	for _, r := range reports {
		if k := (session{r.Subscriber, r.Start, r.End, r.Report.Chunks}); traced[k] != 1 {
			t.Errorf("report %+v traced %d times, want once", k, traced[k])
		}
	}
}

// TestInternViewRacesResolvers runs the interner's lock-free read side
// against its writers: feeders intern never-seen subscribers batch
// after batch while the shard workers resolve names for every traced
// chunk and every close, /debug/sessions snapshots resolve the open
// flows, /debug/trace snapshots copy the rings the workers are
// batch-recording into, and the wire door's Find resolves batches of
// the feeders' names, fed or not yet. Run under -race; every name that
// comes back must be one a feeder sent, and a Find hit the name asked.
func TestInternViewRacesResolvers(t *testing.T) {
	fw, _ := fixtures(t)
	ob := obs.NewObserver(4, 256)
	var mu sync.Mutex
	reported := map[string]bool{}
	eng := engine.New(fw, engine.Config{Shards: 4, Obs: ob}, func(r engine.Report) {
		mu.Lock()
		reported[r.Subscriber] = true
		mu.Unlock()
	})

	const feeders, subsPerFeeder, chunks = 3, 150, 5
	valid := func(name string) bool {
		var f, n int
		_, err := fmt.Sscanf(name, "churn-%d-%d", &f, &n)
		return err == nil && f < feeders && n < subsPerFeeder
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range ob.TraceEvents() {
				if !valid(ev.Subscriber) {
					t.Errorf("trace event resolved subscriber %q", ev.Subscriber)
					return
				}
			}
			for _, sh := range eng.OpenSessions() {
				for _, s := range sh.Sessions {
					if !valid(s.Subscriber) {
						t.Errorf("open session resolved subscriber %q", s.Subscriber)
						return
					}
				}
			}
		}
	}()
	readers.Add(1)
	go func() {
		defer readers.Done()
		subs, refs := make([][]byte, subsPerFeeder), make([]sessionizer.SubRef, subsPerFeeder)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for n := range subs {
				subs[n] = []byte(fmt.Sprintf("churn-%d-%d", (round+n)%feeders, n))
			}
			eng.Find(subs, refs)
			for n, ref := range refs {
				if ref.ID != 0 && ref.Name != string(subs[n]) || ref.ID == 0 && ref != (sessionizer.SubRef{}) {
					t.Errorf("Find(%q) = %+v", subs[n], ref)
					return
				}
			}
		}
	}()
	for f := 0; f < feeders; f++ {
		writers.Add(1)
		go func(f int) {
			defer writers.Done()
			for n := 0; n < subsPerFeeder; n++ {
				batch := make([]weblog.Entry, chunks)
				for c := range batch {
					batch[c] = weblog.Entry{
						Timestamp: float64(n*40 + c), Subscriber: fmt.Sprintf("churn-%d-%d", f, n),
						Host: "r1---sn-aaaa.googlevideo.com", Bytes: 400_000, TransactionSec: 0.3,
						Region: fmt.Sprintf("region-%d", n%7),
					}
				}
				eng.Feed(batch)
			}
		}(f)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, r := range eng.Drain() {
		reported[r.Subscriber] = true
	}
	if len(reported) != feeders*subsPerFeeder {
		t.Errorf("%d distinct subscribers reported, fed %d", len(reported), feeders*subsPerFeeder)
	}
	for name := range reported {
		if !valid(name) {
			t.Errorf("report resolved subscriber %q", name)
		}
	}
}
