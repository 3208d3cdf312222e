package pipeline

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"vqoe/internal/cohort"
	"vqoe/internal/engine"
	"vqoe/internal/mos"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

// TestCohortRollupConvergence is the end-to-end acceptance check for
// the fleet rollup: a live workload flows through the sharded server,
// a poller hammers GET /debug/cohorts while shards are still
// observing (meaningful under -race), and after drain every cohort's
// p10/p50/p90 MOS must equal the exact offline quantile computed from
// the very same session reports.
func TestCohortRollupConvergence(t *testing.T) {
	fw, _ := testFramework(t)

	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 500
	lcfg.SessionsPerSubscriber = 6
	lcfg.Seed = 21
	// concentrate the fleet on two regions, one device class, and the
	// sd cap bucket (split across the 360/480 rungs, which CapBucket
	// must collapse), so two cohorts accumulate >1k sessions each
	lcfg.RegionWeights = []float64{0.55, 0.45, 0, 0, 0}
	lcfg.DeviceWeights = []float64{1, 0, 0, 0}
	lcfg.QualityCapWeights = [6]float64{0, 0, 0.5, 0.5, 0, 0}
	live := workload.GenerateLive(lcfg)

	var mu sync.Mutex
	var reports []SessionReport
	srv := NewServerOpts(fw, Options{
		Engine: engine.Config{Shards: 4},
		OnReport: func(r SessionReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
		},
	})
	h := srv.Handler()

	// snapshot poller racing the shard workers
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cohorts", nil))
			if rec.Code != 200 {
				t.Errorf("/debug/cohorts status %d", rec.Code)
				return
			}
			var snap cohort.Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				t.Errorf("mid-ingest /debug/cohorts not JSON: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for i := 0; i < len(live.Entries); i += 512 {
		j := i + 512
		if j > len(live.Entries) {
			j = len(live.Entries)
		}
		srv.Engine().Feed(live.Entries[i:j])
	}
	srv.Drain()
	close(stop)
	pollWG.Wait()

	// offline ground truth: attribute each report to its cohort via
	// the workload's own entries (region/device are per-subscriber,
	// the cap varies per session, so match entries by time range)
	bySub := map[string][]weblog.Entry{}
	for _, e := range live.Entries {
		bySub[e.Subscriber] = append(bySub[e.Subscriber], e)
	}
	exactMOS := map[string][]float64{}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) < 800 {
		t.Fatalf("only %d session reports — fixture too small to be meaningful", len(reports))
	}
	for _, rep := range reports {
		var key cohort.Key
		found := false
		for i := range bySub[rep.Subscriber] {
			e := &bySub[rep.Subscriber][i]
			if e.Timestamp >= rep.Start-1e-9 && e.Timestamp <= rep.End+1e-9 {
				key, found = cohort.Key{Region: e.Region, Device: e.Device, Cap: e.Cap}, true
				break
			}
		}
		if !found {
			t.Fatalf("no workload entry matches report %s [%g,%g]",
				rep.Subscriber, rep.Start, rep.End)
		}
		exactMOS[key.String()] = append(exactMOS[key.String()], float64(mos.FromReport(rep.Report)))
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cohorts", nil))
	var snap cohort.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Overflow != nil {
		t.Fatalf("cardinality cap bit on a %d-cohort fleet: %+v", len(exactMOS), snap.Overflow)
	}
	if snap.Total != int64(len(reports)) {
		t.Errorf("rollup total %d, want %d sessions", snap.Total, len(reports))
	}
	if len(snap.Cohorts) != len(exactMOS) {
		t.Errorf("rollup has %d cohorts, offline attribution %d", len(snap.Cohorts), len(exactMOS))
	}

	populous := 0
	for _, st := range snap.Cohorts {
		xs := exactMOS[st.Cohort]
		if int64(len(xs)) != st.Sessions {
			t.Errorf("cohort %s: rollup counted %d sessions, offline %d", st.Cohort, st.Sessions, len(xs))
		}
		if len(xs) >= 800 {
			populous++
		}
		sort.Float64s(xs)
		for _, q := range []struct {
			p    float64
			got  float64
			name string
		}{
			{0.10, st.MOSP10, "p10"}, {0.50, st.MOSP50, "p50"}, {0.90, st.MOSP90, "p90"},
		} {
			if want := offlineQuantile(xs, q.p); math.Abs(q.got-want) > 1e-12 {
				t.Errorf("cohort %s (%d sessions) %s: rollup %v vs exact %v", st.Cohort, st.Sessions, q.name, q.got, want)
			}
		}
	}
	if populous < 2 {
		t.Fatalf("only %d cohorts reached 800 sessions — fixture too thin", populous)
	}
}

// offlineQuantile is the exact linearly-interpolated quantile of a
// sorted sample.
func offlineQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	r := p * float64(len(sorted)-1)
	lo := int(r)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := r - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// TestCohortLabelIsOneSeries: cohort keys that render one label — region
// "" and region "-" both print as "-" — are one cohort on every surface:
// /metrics carries one vqoe_cohort_sessions_total sample for the label
// (two would be an invalid exposition), and /debug/cohorts one row
// counting every session, under the smaller key.
func TestCohortLabelIsOneSeries(t *testing.T) {
	fw, _ := testFramework(t)
	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 8
	lcfg.SessionsPerSubscriber = 2
	lcfg.Seed = 37
	live := workload.GenerateLive(lcfg)
	entries := append([]weblog.Entry(nil), live.Entries...)
	region := map[string]string{}
	for i := range entries {
		e := &entries[i]
		if _, ok := region[e.Subscriber]; !ok {
			region[e.Subscriber] = []string{"", "-"}[len(region)%2]
		}
		e.Region, e.Device, e.Cap = region[e.Subscriber], "tv", "hd"
	}

	srv := NewServerOpts(fw, Options{Engine: engine.Config{Shards: 2}})
	srv.Engine().Feed(entries)
	srv.Drain()
	var reports int64
	for _, sh := range srv.Engine().Snapshot() {
		reports += sh.Reports
	}

	var samples []float64
	for _, s := range scrape(t, srv)["vqoe_cohort_sessions_total"].samples {
		if s.labels["cohort"] == "-/tv/hd" {
			samples = append(samples, s.value)
		}
	}
	if len(samples) != 1 || samples[0] != float64(reports) {
		t.Errorf(`vqoe_cohort_sessions_total{cohort="-/tv/hd"} samples %v, want one of %d`, samples, reports)
	}
	var snap cohort.Snapshot
	getJSON(t, srv.Handler(), "/debug/cohorts", &snap)
	if len(snap.Cohorts) != 1 || snap.Cohorts[0].Cohort != "-/tv/hd" || snap.Cohorts[0].Region != "" || snap.Cohorts[0].Sessions != reports {
		t.Errorf("/debug/cohorts rows %+v, want one -/tv/hd row of region \"\" with %d sessions", snap.Cohorts, reports)
	}
	if reports < 4 {
		t.Fatalf("%d sessions reported; the fixture needs some under each key", reports)
	}
}
