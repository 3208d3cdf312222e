package cohort

import (
	"math"
	"sort"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/mos"
	"vqoe/internal/stats"
)

func TestKeyString(t *testing.T) {
	cases := []struct {
		k    Key
		want string
	}{
		{Key{}, "unknown"},
		{Key{Region: "eu-west", Device: "mobile", Cap: "hd"}, "eu-west/mobile/hd"},
		{Key{Region: "apac"}, "apac/-/-"},
		{Key{Device: "tv", Cap: "sd"}, "-/tv/sd"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.k, got, c.want)
		}
	}
}

// report fabricates an assessment with a controllable severity mix.
func report(stall features.StallLabel, rep features.RepLabel, sw bool) core.Report {
	return core.Report{Stall: stall, Representation: rep, SwitchVariance: sw, Chunks: 10}
}

func TestObserveAndSnapshot(t *testing.T) {
	r := NewRollup(Config{Shards: 2})
	good := Key{Region: "us-east", Device: "tv", Cap: "hd"}
	bad := Key{Region: "eu-west", Device: "mobile", Cap: "ld"}
	for i := 0; i < 40; i++ {
		r.Observe(i%2, good, report(features.NoStall, features.HD, false))
	}
	for i := 0; i < 20; i++ {
		r.Observe(i%2, bad, report(features.SevereStall, features.LD, true))
	}
	snap := r.Snapshot()
	if len(snap.Cohorts) != 2 {
		t.Fatalf("cohorts = %d, want 2", len(snap.Cohorts))
	}
	// worst-first: the stalled LD cohort must lead
	if snap.Cohorts[0].Cohort != bad.String() {
		t.Errorf("worst cohort = %q, want %q", snap.Cohorts[0].Cohort, bad.String())
	}
	w, g := snap.Cohorts[0], snap.Cohorts[1]
	if w.Sessions != 20 || g.Sessions != 40 || snap.Total != 60 {
		t.Errorf("sessions = %d/%d total %d", w.Sessions, g.Sessions, snap.Total)
	}
	if w.StallRate != 1 || w.LowQualityRate != 1 || w.SwitchRate != 1 {
		t.Errorf("bad cohort rates = %v %v %v, want all 1", w.StallRate, w.LowQualityRate, w.SwitchRate)
	}
	if g.StallRate != 0 || g.LowQualityRate != 0 || g.SwitchRate != 0 {
		t.Errorf("good cohort rates = %v %v %v, want all 0", g.StallRate, g.LowQualityRate, g.SwitchRate)
	}
	// every session in a cohort has the same report, so every quantile
	// must sit exactly on that MOS
	wantBad := float64(mos.FromReport(report(features.SevereStall, features.LD, true)))
	wantGood := float64(mos.FromReport(report(features.NoStall, features.HD, false)))
	for _, pair := range []struct{ got, want float64 }{
		{w.MOSP10, wantBad}, {w.MOSP50, wantBad}, {w.MOSP90, wantBad}, {w.MOSMean, wantBad},
		{g.MOSP10, wantGood}, {g.MOSP50, wantGood}, {g.MOSP90, wantGood}, {g.MOSMean, wantGood},
	} {
		if math.Abs(pair.got-pair.want) > 1e-9 {
			t.Errorf("constant-MOS quantile = %v, want %v", pair.got, pair.want)
		}
	}
	if g.MOSP50 <= w.MOSP50 {
		t.Errorf("good p50 %v should exceed bad p50 %v", g.MOSP50, w.MOSP50)
	}
	if snap.Overflow != nil || snap.Evicted != 0 {
		t.Errorf("unexpected overflow %+v evicted %d", snap.Overflow, snap.Evicted)
	}
}

func TestCardinalityCapEvictsIntoOverflow(t *testing.T) {
	r := NewRollup(Config{Shards: 1, MaxCohorts: 4})
	regions := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"}
	for round := 0; round < 3; round++ {
		for _, reg := range regions {
			r.Observe(0, Key{Region: reg, Device: "tv", Cap: "hd"},
				report(features.NoStall, features.SD, false))
		}
	}
	snap := r.Snapshot()
	if len(snap.Cohorts) > 4 {
		t.Fatalf("cap breached: %d cohorts", len(snap.Cohorts))
	}
	if snap.Overflow == nil {
		t.Fatal("overflow bucket missing after eviction")
	}
	if snap.Evicted == 0 {
		t.Error("evicted count should be positive")
	}
	if snap.Total != int64(3*len(regions)) {
		t.Errorf("total %d, want %d — sessions lost in eviction", snap.Total, 3*len(regions))
	}
	if snap.Capacity != 4 {
		t.Errorf("capacity = %d", snap.Capacity)
	}
}

// The fleet merge must also enforce the cap when stripes hold disjoint
// key sets that union past it.
func TestFleetMergeCapAcrossStripes(t *testing.T) {
	r := NewRollup(Config{Shards: 4, MaxCohorts: 3})
	for shard := 0; shard < 4; shard++ {
		for i := 0; i < 3; i++ {
			key := Key{Region: "r" + string(rune('a'+shard)), Device: "d" + string(rune('0'+i)), Cap: "hd"}
			for n := 0; n <= shard; n++ { // busier high shards
				r.Observe(shard, key, report(features.NoStall, features.HD, false))
			}
		}
	}
	snap := r.Snapshot()
	if len(snap.Cohorts) != 3 {
		t.Fatalf("fleet view has %d cohorts, want 3", len(snap.Cohorts))
	}
	if snap.Overflow == nil {
		t.Fatal("overflow missing")
	}
	var want int64
	for shard := 0; shard < 4; shard++ {
		want += int64(3 * (shard + 1))
	}
	if snap.Total != want {
		t.Errorf("total %d, want %d", snap.Total, want)
	}
	// the kept cohorts are the busiest ones (shard 3's, 4 sessions each)
	for _, c := range snap.Cohorts {
		if c.Sessions != 4 {
			t.Errorf("kept cohort %s has %d sessions, want the busiest (4)", c.Cohort, c.Sessions)
		}
	}
}

func TestSnapshotCachedByGeneration(t *testing.T) {
	r := NewRollup(Config{Shards: 2})
	k := Key{Region: "us-west", Device: "tv", Cap: "hd"}
	r.Observe(0, k, report(features.NoStall, features.HD, false))
	a, b := r.Snapshot(), r.Snapshot()
	if a != b {
		t.Error("idle snapshots should share the cached view")
	}
	r.Observe(1, k, report(features.MildStall, features.SD, false))
	c := r.Snapshot()
	if c == a {
		t.Error("snapshot after observe should re-merge")
	}
	if c.Total != 2 {
		t.Errorf("total = %d", c.Total)
	}
}

func TestNilRollupSafe(t *testing.T) {
	var r *Rollup
	r.Observe(0, Key{Region: "x"}, core.Report{})
	if s := r.Snapshot(); s == nil || len(s.Cohorts) != 0 {
		t.Errorf("nil rollup snapshot = %+v", s)
	}
}

// Striped ingest under concurrency with racing snapshots: counters
// must balance and the race detector must stay quiet.
func TestConcurrentObserveSnapshot(t *testing.T) {
	const shards, perShard = 8, 500
	r := NewRollup(Config{Shards: shards, MaxCohorts: 8})
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := stats.NewRand(int64(s + 1))
			for i := 0; i < perShard; i++ {
				key := Key{
					Region: []string{"us", "eu", "apac"}[rng.WeightedChoice([]float64{1, 1, 1})],
					Device: []string{"tv", "mobile"}[rng.WeightedChoice([]float64{1, 1})],
					Cap:    "hd",
				}
				st := features.StallLabel(rng.WeightedChoice([]float64{6, 3, 1}))
				r.Observe(s, key, report(st, features.SD, false))
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot()
	if snap.Total != shards*perShard {
		t.Errorf("total %d, want %d", snap.Total, shards*perShard)
	}
}

// End-to-end accuracy of the striped rollup: per-cohort p50/p10/p90
// from merged stripes within tolerance of exact quantiles over the
// same MOS stream.
func TestStripedQuantilesMatchExact(t *testing.T) {
	const shards = 8
	r := NewRollup(Config{Shards: shards})
	rng := stats.NewRand(7)
	keys := []Key{
		{Region: "us-east", Device: "tv", Cap: "hd"},
		{Region: "eu-west", Device: "mobile", Cap: "sd"},
	}
	exact := map[Key][]float64{}
	for i := 0; i < 12000; i++ {
		k := keys[i%2]
		var rep core.Report
		if k.Region == "eu-west" {
			rep = report(
				features.StallLabel(rng.WeightedChoice([]float64{2, 5, 3})),
				features.RepLabel(rng.WeightedChoice([]float64{5, 4, 1})),
				rng.Bernoulli(0.3))
		} else {
			rep = report(
				features.StallLabel(rng.WeightedChoice([]float64{8, 2, 0})),
				features.RepLabel(rng.WeightedChoice([]float64{0, 2, 8})),
				rng.Bernoulli(0.05))
		}
		rep.StallConf, rep.RepConf = 0.9, 0.9
		r.Observe(i%shards, k, rep)
		exact[k] = append(exact[k], float64(mos.FromReport(rep)))
	}
	snap := r.Snapshot()
	for _, c := range snap.Cohorts {
		k := Key{Region: c.Region, Device: c.Device, Cap: c.Cap}
		xs := exact[k]
		sort.Float64s(xs)
		for _, q := range []struct {
			p    float64
			got  float64
			name string
		}{
			{0.10, c.MOSP10, "p10"}, {0.50, c.MOSP50, "p50"}, {0.90, c.MOSP90, "p90"},
		} {
			want := xs[int(q.p*float64(len(xs)-1))]
			if math.Abs(q.got-want) > 0.1 {
				t.Errorf("%s %s: rollup %v, exact %v", c.Cohort, q.name, q.got, want)
			}
		}
	}
}
