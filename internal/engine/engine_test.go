package engine_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

var (
	fixOnce sync.Once
	fixFW   *core.Framework
	fixLive *workload.Live
)

func fixtures(t *testing.T) (*core.Framework, *workload.Live) {
	t.Helper()
	fixOnce.Do(func() {
		clearCfg := workload.DefaultConfig(400)
		clearCfg.Seed = 71
		hasCfg := workload.DefaultConfig(200)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Seed = 72
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 10
		var err error
		fixFW, _, err = core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), tcfg)
		if err != nil {
			panic(err)
		}
		lcfg := workload.DefaultLiveConfig()
		lcfg.Subscribers = 16
		lcfg.SessionsPerSubscriber = 2
		lcfg.Seed = 73
		fixLive = workload.GenerateLive(lcfg)
	})
	return fixFW, fixLive
}

// key identifies a report exactly: agreement means the session
// boundaries and every model output — classes, vote shares, switch
// score — matched bit for bit.
func key(sub string, start, end float64, r core.Report) string {
	return fmt.Sprintf("%s|%v|%v|%+v", sub, start, end, r)
}

// referenceReports is the paper's offline path, the single reference
// the live engine is held to: §5.2 sessionizer.Group over each
// subscriber's own entries, features.FromEntries per session, §4
// Framework.Analyze one session at a time, fragments below MinChunks
// suppressed.
func referenceReports(fw *core.Framework, live *workload.Live) map[string]int {
	out := map[string]int{}
	minChunks := engine.DefaultConfig().MinChunks
	for _, own := range live.PerSubscriber {
		for _, s := range sessionizer.Group(own, sessionizer.DefaultConfig()) {
			es := make([]weblog.Entry, len(s.Indices))
			for k, i := range s.Indices {
				es[k] = own[i]
			}
			o := features.FromEntries(es)
			if o.Len() < minChunks {
				continue
			}
			out[key(es[0].Subscriber, s.Start, s.End, fw.Analyze(o))]++
		}
	}
	return out
}

// TestEngineMatchesOfflineReference holds the live path to the offline
// one: every report the engine emits must be one the reference
// produces, and vice versa — at one shard and at four with sweeps off,
// and at four with the default idle sweep (an evicted session is one
// Group would have split at the same place, because the subscriber's
// next entry is further away than the idle gap).
func TestEngineMatchesOfflineReference(t *testing.T) {
	fw, live := fixtures(t)
	want := referenceReports(fw, live)

	for _, tc := range []struct {
		name   string
		shards int
		sweep  float64
	}{
		{"shards=1", 1, -1},
		{"shards=4", 4, -1},
		{"shards=4/default-sweep", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{Shards: tc.shards, SweepEverySec: tc.sweep}
			eng := engine.New(fw, cfg, nil)
			var got []engine.Report
			// feed the sorted stream in moderate synchronous batches, as
			// the capture loop would
			for lo := 0; lo < len(live.Entries); lo += 500 {
				reps, _ := eng.Ingest(live.Entries[lo:min(lo+500, len(live.Entries))])
				got = append(got, reps...)
			}
			got = append(got, eng.Drain()...)

			var evicted int64
			for _, s := range eng.Snapshot() {
				evicted += s.Evicted
			}
			if swept := tc.sweep >= 0; swept != (evicted > 0) {
				t.Errorf("idle sweep closed %d sessions with SweepEverySec=%v", evicted, tc.sweep)
			}
			if len(got) != sum(want) {
				t.Errorf("engine emitted %d reports, reference %d", len(got), sum(want))
			}
			seen := map[string]int{}
			for _, r := range got {
				seen[key(r.Subscriber, r.Start, r.End, r.Report)]++
			}
			for k, n := range want {
				if seen[k] != n {
					t.Errorf("reference report %s: engine emitted it %d times, want %d", k, seen[k], n)
				}
			}
			for k, n := range seen {
				if want[k] == 0 {
					t.Errorf("engine report %s (x%d) is not in the reference", k, n)
				}
			}
		})
	}
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestEngineConcurrentFeeders(t *testing.T) {
	fw, live := fixtures(t)
	want := referenceReports(fw, live)

	cfg := engine.DefaultConfig()
	cfg.Shards = 4
	var mu sync.Mutex
	var got []engine.Report
	eng := engine.New(fw, cfg, func(r engine.Report) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for _, part := range live.Partition(4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 128 {
				eng.Feed(part[lo:min(lo+128, len(part))])
			}
		}()
	}
	wg.Wait()
	got = append(got, eng.Drain()...)

	if len(got) != sum(want) {
		t.Errorf("concurrent feeders emitted %d reports, reference %d", len(got), sum(want))
	}
	var events int64
	for _, s := range eng.Snapshot() {
		events += s.Events
		if s.Dropped != 0 {
			t.Errorf("shard %d dropped %d entries on the blocking path", s.Shard, s.Dropped)
		}
	}
	if events != int64(len(live.Entries)) {
		t.Errorf("shards processed %d events, fed %d", events, len(live.Entries))
	}
}

func TestEngineOfferShedsUnderOverload(t *testing.T) {
	fw, live := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	cfg.Mailbox = 1
	// the worker stalls in the sink from its first report until the burst
	// is over: overload that does not depend on the scheduler running the
	// feeder ahead of the worker (on a loaded 2-CPU box it sometimes did
	// not, and nothing was shed)
	burstOver := make(chan struct{})
	eng := engine.New(fw, cfg, func(engine.Report) { <-burstOver })
	defer eng.Drain()

	accepted, shed := 0, 0
	for lo := 0; lo+50 <= len(live.Entries); lo += 50 {
		took := eng.Offer(live.Entries[lo : lo+50])
		accepted += took.Accepted
		shed += took.Dropped
	}
	close(burstOver)
	var dropped int64
	for _, s := range eng.Snapshot() {
		dropped += s.Dropped
	}
	if accepted == 0 {
		t.Error("offer accepted nothing")
	}
	if dropped == 0 {
		t.Error("a 1-deep mailbox under burst load should shed entries")
	}
	if int64(shed) != dropped {
		t.Errorf("Offer tallied %d dropped entries, the shards counted %d", shed, dropped)
	}
}

func TestEngineAdvanceAndSnapshot(t *testing.T) {
	fw, live := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 2
	cfg.SweepEverySec = -1 // manual clock only
	eng := engine.New(fw, cfg, nil)

	one := live.PerSubscriber[0]
	if rep, _ := eng.Ingest(one); len(rep) == 0 && len(one) == 0 {
		t.Skip("empty subscriber stream")
	}
	snap := eng.Snapshot()
	openBefore := 0
	for _, s := range snap {
		openBefore += s.Open
	}
	if openBefore == 0 {
		t.Fatal("no session open after ingest")
	}
	if got := eng.Advance(1e12); len(got) == 0 {
		t.Error("advance past the idle gap emitted nothing")
	}
	for _, s := range eng.Snapshot() {
		if s.Open != 0 {
			t.Errorf("shard %d still tracks %d sessions after advance", s.Shard, s.Open)
		}
	}
	if rest := eng.Drain(); len(rest) != 0 {
		t.Errorf("drain after advance returned %d reports", len(rest))
	}
	// closed engine: every entry point is a no-op
	if rep, took := eng.Ingest(one); rep != nil || took != (engine.Tally{}) || eng.Offer(one) != (engine.Tally{}) || eng.Drain() != nil {
		t.Error("closed engine should take no work")
	}
	eng.Feed(one) // must not panic
}

func TestEngineAutoEviction(t *testing.T) {
	fw, _ := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	eng := engine.New(fw, cfg, nil)
	defer eng.Drain()

	// one subscriber goes quiet; another keeps the clock moving far
	// past the idle gap + slack
	quiet := []weblog.Entry{}
	for i := 0; i < 5; i++ {
		quiet = append(quiet, weblog.Entry{
			Timestamp: float64(i), Subscriber: "quiet",
			Host: "r1---sn-aaaa.googlevideo.com", Bytes: 500_000, TransactionSec: 0.4,
		})
	}
	eng.Ingest(quiet)
	var rep []engine.Report
	for tick := 0; tick < 40; tick++ {
		closed, _ := eng.Ingest([]weblog.Entry{{
			Timestamp: 10 + float64(tick)*5, Subscriber: "chatty",
			Host: "r2---sn-bbbb.googlevideo.com", Bytes: 500_000, TransactionSec: 0.4,
		}})
		rep = append(rep, closed...)
	}
	found := false
	for _, r := range rep {
		if r.Subscriber == "quiet" {
			found = true
		}
	}
	if !found {
		t.Error("idle clock never evicted the quiet subscriber's session")
	}
	var evicted int64
	for _, s := range eng.Snapshot() {
		evicted += s.Evicted
	}
	if evicted == 0 {
		t.Error("eviction counter not incremented")
	}
}

// TestNonFiniteTimestampLeavesSweepAlive is the regression for a record
// the service does not control: before the admission rule, one entry
// with Timestamp=+Inf — to a host the tracker ignores — set its shard's
// high-water mark to +Inf, the sweep test read Inf−Inf=NaN from then on,
// and no idle session on that shard was ever evicted again. Now the
// entry is one tick of the rejected counter and the idle clock runs.
func TestNonFiniteTimestampLeavesSweepAlive(t *testing.T) {
	fw, _ := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	eng := engine.New(fw, cfg, nil)
	defer eng.Drain()

	media := func(sub string, ts float64) weblog.Entry {
		return weblog.Entry{Timestamp: ts, Subscriber: sub, Host: "r1---sn-aaaa.googlevideo.com", Bytes: 500_000, TransactionSec: 0.4}
	}
	const idle = 40
	var batch []weblog.Entry
	for s := 0; s < idle; s++ {
		for i := 0; i < 5; i++ {
			batch = append(batch, media(fmt.Sprintf("idle-%d", s), float64(i)))
		}
	}
	poison := weblog.Entry{Timestamp: math.Inf(1), Subscriber: "idle-0", Host: "ads.example.com"}
	if _, took := eng.Ingest(append(batch, poison)); took != (engine.Tally{Accepted: len(batch), Rejected: 1}) {
		t.Fatalf("batch with one +Inf timestamp tallied %+v", took)
	}
	reports := 0
	for tick := 0; tick < 40; tick++ {
		closed, _ := eng.Ingest([]weblog.Entry{media("chatty", 10+float64(tick)*5)})
		reports += len(closed)
	}
	var evicted int64
	for _, s := range eng.Snapshot() {
		evicted += s.Evicted
	}
	if evicted != idle || reports != idle {
		t.Errorf("%d of %d idle sessions evicted (%d reported) after a +Inf timestamp", evicted, idle, reports)
	}
	if got := eng.Rejected(); got != [2]int64{0, 1} {
		t.Errorf("rejected %v, want one non_finite", got)
	}
}
