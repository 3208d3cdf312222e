package engine_test

import (
	"sync"
	"testing"

	"vqoe/internal/engine"
)

// TestEngineSingleShardBatchesConcurrentFeeders pins the slab
// hand-off: when every batch routes to one shard of four, the shard can
// release the pooled routing slab while the feeder that mailed it is
// still inside its submit, and a second feeder re-takes it. Nothing may
// be read from the slab after its last sub-batch is mailed — otherwise
// a sub-batch is mailed twice (entries double-counted) and the race
// detector reports the slab's per-shard views. Sweeps are off so the
// reports depend only on per-subscriber order, and a one-feeder run is
// the reference.
func TestEngineSingleShardBatchesConcurrentFeeders(t *testing.T) {
	fw, live := fixtures(t)

	run := func(feeders int) (map[string]int, int64) {
		cfg := engine.DefaultConfig()
		cfg.Shards = 4
		cfg.SweepEverySec = -1
		var mu sync.Mutex
		got := map[string]int{}
		add := func(r engine.Report) {
			mu.Lock()
			got[key(r.Subscriber, r.Start, r.End, r.Report)]++
			mu.Unlock()
		}
		eng := engine.New(fw, cfg, add)
		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for s := f; s < len(live.PerSubscriber); s += feeders {
					sub := live.PerSubscriber[s]
					for lo := 0; lo < len(sub); lo += 4 {
						eng.Feed(sub[lo:min(lo+4, len(sub))])
					}
				}
			}(f)
		}
		wg.Wait()
		for _, r := range eng.Drain() {
			add(r)
		}
		var events int64
		for _, s := range eng.Snapshot() {
			events += s.Events
		}
		return got, events
	}

	want, events := run(1)
	if events != int64(len(live.Entries)) {
		t.Fatalf("one feeder: shards processed %d events, fed %d", events, len(live.Entries))
	}
	for round := 0; round < 5; round++ {
		got, events := run(2)
		if events != int64(len(live.Entries)) {
			t.Fatalf("round %d: shards processed %d events, fed %d", round, events, len(live.Entries))
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d distinct reports, one feeder %d", round, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("round %d: report %s seen %d times, one feeder %d", round, k, got[k], n)
			}
		}
	}
}
