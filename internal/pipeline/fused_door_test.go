package pipeline

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"vqoe/internal/cohort"
	"vqoe/internal/engine"
	"vqoe/internal/qualitymon"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// fusedRun is what one pass of the stream left behind.
type fusedRun struct {
	reports []string // one key per report, sorted
	cohorts cohort.Snapshot
	quality qualitymon.Snapshot
}

func getJSON(t *testing.T, h http.Handler, path string, into any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("%s status %d", path, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// runStream has drive push the stream through a fresh server by the
// door under test — entries, srv.Drain(), then the delayed labels
// (every prediction is tracked by then, so matching is deterministic) —
// and collects what it left behind.
func runStream(t *testing.T, shards int, drive func(srv *Server)) fusedRun {
	t.Helper()
	fw, _ := testFramework(t)
	var mu sync.Mutex
	var run fusedRun
	srv := NewServerOpts(fw, Options{
		Engine: engine.Config{Shards: shards, SweepEverySec: -1},
		OnReport: func(r SessionReport) {
			mu.Lock()
			run.reports = append(run.reports,
				fmt.Sprintf("%s|%v|%v|%+v", r.Subscriber, r.Start, r.End, r.Report))
			mu.Unlock()
		},
	})
	drive(srv)
	sort.Strings(run.reports)
	h := srv.Handler()
	getJSON(t, h, "/debug/cohorts", &run.cohorts)
	getJSON(t, h, "/debug/quality", &run.quality)
	// which sessions the flight recorder still holds depends on how the
	// connections interleave; the cohort tallies do not
	for i := range run.cohorts.Cohorts {
		run.cohorts.Cohorts[i].Exemplars = nil
	}
	return run
}

func toLabel(l workload.SessionLabel) qualitymon.Label {
	return qualitymon.Label{
		Type: qualitymon.LabelType, Subscriber: l.Subscriber,
		Start: l.Start, End: l.End, AvailableAt: l.AvailableAt,
		Stall: int(l.Stall), Rep: int(l.Rep),
	}
}

// TestFusedDoorMatchesFeed holds the listener's fused door — frames
// decoded straight into routed recs through per-connection identity
// caches — to Engine.Feed over the same entries: the same seeded live
// stream, cohort metadata and delayed labels included, once through
// Feed from one caller and once over two concurrent wire connections,
// at one shard and at four. Every report must match bit for bit
// (bounds, classes, vote shares, switch score), and so must the cohort
// rollup and the model-quality verdict the sessions and labels left
// behind. Two fixtures: the default live mix spreads the sessions over
// every region, device class and cap bucket, so a door that mixed up
// an entry's metadata would split or merge cohorts; the concentrated
// one puts ~32 sessions in each of two cohorts, so the order sessions
// reach a cohort differs between the doors and would show in its
// quantiles. Meaningful under -race: two connection goroutines intern
// into one engine while its shards resolve names.
func TestFusedDoorMatchesFeed(t *testing.T) {
	varied := workload.DefaultLiveConfig()
	varied.Subscribers = 32
	varied.SessionsPerSubscriber = 2
	varied.Seed = 17
	varied.LabelRate = 1
	concentrated := varied
	concentrated.RegionWeights = []float64{1, 1, 0, 0, 0}
	concentrated.DeviceWeights = []float64{1, 0, 0, 0}
	concentrated.QualityCapWeights = [6]float64{0, 0, 0.5, 0.5, 0, 0}
	fusedDoorMatchesFeed(t, "", varied)
	fusedDoorMatchesFeed(t, "concentrated_", concentrated)
}

// fusedDoorMatchesFeed runs one fixture through both doors at one shard
// and at four, as subtests named prefix + "shards=N".
func fusedDoorMatchesFeed(t *testing.T, prefix string, lcfg workload.LiveConfig) {
	live := workload.GenerateLive(lcfg)
	if live.Entries[0].Region == "" || len(live.Labels) == 0 {
		t.Fatal("fixture carries no cohort metadata or no labels")
	}
	const conns = 2
	parts := live.Partition(conns)
	partOf := map[string]int{}
	for p, part := range parts {
		for i := range part {
			partOf[part[i].Subscriber] = p
		}
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%sshards=%d", prefix, shards), func(t *testing.T) {
			want := runStream(t, shards, func(srv *Server) {
				for lo := 0; lo < len(live.Entries); lo += 256 {
					srv.Engine().Feed(live.Entries[lo:min(lo+256, len(live.Entries))])
				}
				srv.Drain()
				for _, l := range live.Labels {
					srv.Engine().ObserveLabel(toLabel(l))
				}
			})

			got := runStream(t, shards, func(srv *Server) {
				ws := srv.NewWireServer()
				ln, err := wire.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go func() { _ = ws.Serve(ln) }()
				defer ws.Close()
				clients := make([]*wire.Client, conns)
				for p := range clients {
					if clients[p], err = wire.Dial(ln.Addr().String()); err != nil {
						t.Fatal(err)
					}
					defer clients[p].Close()
				}
				each := func(fn func(p int, c *wire.Client) error) {
					var wg sync.WaitGroup
					for p, c := range clients {
						wg.Add(1)
						go func(p int, c *wire.Client) {
							defer wg.Done()
							if err := fn(p, c); err != nil {
								t.Error(err)
							}
						}(p, c)
					}
					wg.Wait()
				}
				each(func(p int, c *wire.Client) error {
					if err := c.SendEntries(parts[p]); err != nil {
						return err
					}
					ack, err := c.Sync()
					if err == nil && ack.Entries != int64(len(parts[p])) {
						err = fmt.Errorf("connection %d acked %d of %d entries", p, ack.Entries, len(parts[p]))
					}
					return err
				})
				srv.Drain()
				each(func(p int, c *wire.Client) error {
					sent := int64(0)
					for _, l := range live.Labels {
						if partOf[l.Subscriber] != p {
							continue
						}
						ql := toLabel(l)
						if err := c.AppendLabel(&ql); err != nil {
							return err
						}
						sent++
					}
					ack, err := c.Sync()
					if err == nil && ack.Labels != sent {
						err = fmt.Errorf("connection %d acked %d of %d labels", p, ack.Labels, sent)
					}
					return err
				})
				if snap := ws.Snapshot(); snap.Entries != int64(len(live.Entries)) || snap.Errors != 0 {
					t.Errorf("listener counted %d of %d entries, %d errors", snap.Entries, len(live.Entries), snap.Errors)
				}
				var n int64
				for _, sh := range srv.Engine().Snapshot() {
					n += sh.Events
				}
				if n != int64(len(live.Entries)) {
					t.Errorf("the shards took %d entries over the fused door, want %d", n, len(live.Entries))
				}
			})

			if len(want.reports) == 0 || want.quality.Labels.Matched == 0 || len(want.cohorts.Cohorts) < 2 {
				t.Fatalf("vacuous fixture: %d reports, %d labels matched, %d cohorts",
					len(want.reports), want.quality.Labels.Matched, len(want.cohorts.Cohorts))
			}
			if len(got.reports) != len(want.reports) {
				t.Fatalf("fused door emitted %d reports, Feed %d", len(got.reports), len(want.reports))
			}
			for i := range want.reports {
				if got.reports[i] != want.reports[i] {
					t.Fatalf("report %d diverges:\nfused %s\n feed %s", i, got.reports[i], want.reports[i])
				}
			}
			if !reflect.DeepEqual(got.cohorts, want.cohorts) {
				t.Errorf("cohort rollup diverges:\nfused %+v\n feed %+v", got.cohorts, want.cohorts)
			}
			// the monitor's mean-style fields sum shard contributions in
			// arrival order, so the last ulp may differ; everything else
			// is exact
			if !approxEqual(reflect.ValueOf(got.quality), reflect.ValueOf(want.quality)) {
				t.Errorf("quality verdict diverges:\nfused %+v\n feed %+v", got.quality, want.quality)
			}
		})
	}
}
