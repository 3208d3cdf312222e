package pipeline

import (
	"encoding/json"
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
// observing (meaningful under -race), and after drain every
// sufficiently-populated cohort's streaming p50 MOS must sit within
// 0.1 of the exact offline quantile computed from the very same
// session reports.
func TestCohortRollupConvergence(t *testing.T) {
	fw, _ := testFramework(t)

	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 500
	lcfg.SessionsPerSubscriber = 6
	lcfg.Seed = 21
	// concentrate the fleet on two regions, one device class, and the
	// sd cap bucket (split across the 360/480 rungs, which CapBucket
	// must collapse) so each cohort accumulates >1k sessions — P² on
	// the discrete MOS atoms needs that many to pin the median
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

	checked := 0
	for _, st := range snap.Cohorts {
		xs := exactMOS[st.Cohort]
		if int64(len(xs)) != st.Sessions {
			t.Errorf("cohort %s: rollup counted %d sessions, offline %d", st.Cohort, st.Sessions, len(xs))
		}
		if len(xs) < 800 {
			continue // too few samples for a tight quantile comparison
		}
		checked++
		sort.Float64s(xs)
		for _, q := range []struct {
			p    float64
			got  float64
			tol  float64
			name string
		}{
			{0.50, st.MOSP50, 0.10, "p50"}, // acceptance bound
			// tail quantiles sit in sparse regions of the discrete
			// MOS distribution, so they rate a looser sanity bound
			{0.10, st.MOSP10, 0.35, "p10"},
			{0.90, st.MOSP90, 0.35, "p90"},
		} {
			want := offlineQuantile(xs, q.p)
			if d := q.got - want; d > q.tol || d < -q.tol {
				t.Errorf("cohort %s (%d sessions) %s: streaming %.4f vs exact %.4f (|Δ|>%g)",
					st.Cohort, st.Sessions, q.name, q.got, want, q.tol)
			} else {
				t.Logf("cohort %s %s: streaming %.4f exact %.4f", st.Cohort, q.name, q.got, want)
			}
		}
	}
	if checked < 2 {
		t.Fatalf("only %d cohorts reached 800 sessions — convergence barely exercised", checked)
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
