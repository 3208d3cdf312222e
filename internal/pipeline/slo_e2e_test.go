package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

// The SLO e2e fixture trains on corpora whose profile and quality-cap
// mixes match the *undrifted* live phases below, so the baseline
// sketches describe the healthy traffic and only the induced drift
// phase shifts the population (same construction as the engine drift
// test — the shared testFramework's corpora do not match the live
// generator, so even healthy traffic reads as drifted against it).
var (
	sloFWOnce sync.Once
	sloFW     *core.Framework
)

func sloFramework(t *testing.T) *core.Framework {
	t.Helper()
	sloFWOnce.Do(func() {
		stallCfg := workload.DefaultConfig(700)
		stallCfg.AdaptiveFraction = 1
		stallCfg.Encrypted = true
		stallCfg.Seed = 181
		hasCfg := workload.DefaultConfig(700)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Encrypted = true
		hasCfg.Seed = 182
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 15
		var err error
		sloFW, _, err = core.TrainFramework(workload.Generate(stallCfg), workload.Generate(hasCfg), tcfg)
		if err != nil {
			panic(err)
		}
	})
	return sloFW
}

// TestSLOAlertLifecycleE2E drives the full alert lifecycle on a live
// server: a healthy baseline, then an induced load-shedding hotspot
// (mailbox capacity 1 + Offer flooding) and an induced label-drift
// fault (population pushed onto congested network profiles), each
// expected to take its rule through inactive → pending → firing;
// removing the faults and diluting with healthy traffic must resolve
// both. The /debug/alerts document, the /metrics families, and the
// JSONL alert log must agree on the story throughout.
func TestSLOAlertLifecycleE2E(t *testing.T) {
	fw := sloFramework(t)
	var logBuf bytes.Buffer
	// Manual sampler with a fake clock anchored at real wall time (the
	// qualitymon/cohort freshness taps stamp real time; staleness rules
	// are disabled below so the two clocks never fight).
	now := float64(time.Now().UnixNano()) / 1e9
	srv := NewServerOpts(fw, Options{
		Engine: engine.Config{Shards: 2, Mailbox: 1},
		// drift trips on feature PSI alone: the accuracy gate is pushed
		// out of reach and the sample gate lowered to the fixture size
		Quality: qualitymon.Thresholds{MinSamples: 60, MinLabels: 1 << 40},
		SLO: slo.Config{
			Manual:   true,
			Now:      func() float64 { return now },
			AlertLog: &logBuf,
			Objectives: slo.Objectives{
				DropRateMax:       1e-4,
				FastWindowSec:     8,
				SlowWindowSec:     16,
				BurnFactor:        1,
				MailboxUtilMax:    2,   // mailbox gauge never exceeds 1: rule idle
				LatencyP99MaxSec:  1e3, // never trips
				MOSFloor:          0.5, // MOS floor is 1.0: rule idle
				FlightEvictPerSec: 1e9,
				StaleAfterSec:     1e9, // fake clock outruns real taps: keep staleness idle
				ForSec:            3,
				ClearForSec:       3,
			},
		},
	})
	eng := srv.Engine()
	se := srv.SLO()
	defer se.Close()

	tick := func() {
		now++
		se.Tick(now)
	}
	stateOf := func(rule string) slo.State {
		for _, r := range se.StateRows() {
			if r.Rule == rule {
				return r.State
			}
		}
		t.Fatalf("rule %q not installed", rule)
		return slo.Inactive
	}
	// feed ingests without advancing the fake clock; phases tick
	// explicitly so the total fake time span stays well under the
	// resolved-state retention window.
	feed := func(entries []weblog.Entry) {
		for lo := 0; lo < len(entries); lo += 256 {
			hi := lo + 256
			if hi > len(entries) {
				hi = len(entries)
			}
			eng.Ingest(entries[lo:hi])
		}
	}
	liveFor := func(seed int64, subs, sps int, drift bool) *workload.Live {
		lcfg := workload.DefaultLiveConfig()
		lcfg.Subscribers = subs
		lcfg.SessionsPerSubscriber = sps
		lcfg.Seed = seed
		// healthy traffic matches the training mix; drift pushes the
		// population onto congested profiles (qoegen -drift)
		lcfg.ProfileWeights = [3]float64{0.80, 0.14, 0.06}
		lcfg.QualityCapWeights = [6]float64{0.06, 0.16, 0.22, 0.44, 0.08, 0.04}
		if drift {
			lcfg.ProfileWeights = [3]float64{0.05, 0.15, 0.80}
		}
		return workload.GenerateLive(lcfg)
	}

	// observed state history per rule, appended after every tick batch
	seen := map[string][]slo.State{}
	observe := func() {
		for _, rule := range []string{"drop-rate", "model-degraded"} {
			st := stateOf(rule)
			if n := len(seen[rule]); n == 0 || seen[rule][n-1] != st {
				seen[rule] = append(seen[rule], st)
			}
		}
	}

	// Phase 0: healthy baseline — nothing fires.
	feed(liveFor(7, 24, 2, false).Entries)
	for i := 0; i < 4; i++ {
		tick()
	}
	observe()
	if st := stateOf("drop-rate"); st != slo.Inactive {
		t.Fatalf("drop-rate %v after healthy baseline, want inactive", st)
	}
	if st := stateOf("model-degraded"); st != slo.Inactive {
		t.Fatalf("model-degraded %v after healthy baseline, want inactive", st)
	}

	// Phase 1: flood Offer against mailbox capacity 1 until the shards
	// shed, and keep shedding until drop-rate fires.
	flood := liveFor(11, 24, 2, false).Entries
	var droppedTotal int
	for i := 0; i < 12 && stateOf("drop-rate") != slo.Firing; i++ {
		for j := 0; j < 8; j++ {
			droppedTotal += eng.Offer(flood).Dropped
		}
		tick()
		observe()
	}
	if droppedTotal == 0 {
		t.Fatal("Offer flood against mailbox capacity 1 shed nothing")
	}
	if st := stateOf("drop-rate"); st != slo.Firing {
		t.Fatalf("drop-rate %v after sustained shedding, want firing", st)
	}

	// Phase 2: drift the live population onto congested profiles until
	// feature PSI degrades a model, then hold until the rule fires.
	for round := int64(0); round < 4 && stateOf("model-degraded") == slo.Inactive; round++ {
		feed(liveFor(100+round, 48, 3, true).Entries)
		tick()
		observe()
	}
	for i := 0; i < 8 && stateOf("model-degraded") != slo.Firing; i++ {
		tick()
		observe()
	}
	if st := stateOf("model-degraded"); st != slo.Firing {
		t.Fatalf("model-degraded %v after sustained drift, want firing", st)
	}

	// Phase 3: remove both faults. Healthy traffic dilutes the
	// cumulative drift estimate back under threshold, and the shed
	// counters stop moving so the burn windows drain.
	resolvedBoth := func() bool {
		return stateOf("drop-rate") == slo.Resolved && stateOf("model-degraded") == slo.Resolved
	}
	for round := int64(0); round < 24 && !resolvedBoth(); round++ {
		feed(liveFor(200+round, 48, 3, false).Entries)
		for i := 0; i < 6; i++ {
			tick()
			observe()
		}
	}
	if st := stateOf("drop-rate"); st != slo.Resolved {
		t.Fatalf("drop-rate %v after recovery, want resolved", st)
	}
	if st := stateOf("model-degraded"); st != slo.Resolved {
		t.Fatalf("model-degraded %v after recovery, want resolved", st)
	}

	// Lifecycle ordering: each rule walked inactive → pending → firing
	// → resolved without skipping pending.
	want := []slo.State{slo.Inactive, slo.Pending, slo.Firing, slo.Resolved}
	for rule, states := range seen {
		if !containsSubsequence(states, want) {
			t.Errorf("rule %s state history %v missing inactive→pending→firing→resolved", rule, states)
		}
	}

	// The three surfaces must agree. First /debug/alerts:
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/alerts status %d: %s", rec.Code, rec.Body.String())
	}
	var alerts slo.AlertsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &alerts); err != nil {
		t.Fatalf("/debug/alerts is not an alerts snapshot: %v", err)
	}
	for _, rule := range []string{"drop-rate", "model-degraded"} {
		var found *slo.Alert
		for i := range alerts.Alerts {
			if alerts.Alerts[i].Rule == rule {
				found = &alerts.Alerts[i]
			}
		}
		if found == nil {
			t.Fatalf("/debug/alerts missing rule %s", rule)
		}
		if found.State != "resolved" {
			t.Errorf("/debug/alerts %s state %q, want resolved", rule, found.State)
		}
		if found.LastFiring == nil {
			t.Errorf("/debug/alerts %s retains no last-firing episode", rule)
		} else if found.LastFiring.ResolvedAt <= found.LastFiring.StartedAt {
			t.Errorf("/debug/alerts %s episode resolved at %.0f, started %.0f",
				rule, found.LastFiring.ResolvedAt, found.LastFiring.StartedAt)
		}
	}
	resolvedRules := map[string]bool{}
	for _, fe := range alerts.RecentResolved {
		resolvedRules[fe.Rule] = true
	}
	if !resolvedRules["drop-rate"] || !resolvedRules["model-degraded"] {
		t.Errorf("recent-resolved ring %v missing an induced episode", resolvedRules)
	}

	// Then /metrics:
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	fams, err := parsePromText(rec.Body.String())
	if err != nil {
		t.Fatalf("exposition unparsable: %v", err)
	}
	for _, rule := range []string{"drop-rate", "model-degraded"} {
		if v, ok := sampleValue(fams, "vqoe_alert_state", map[string]string{"rule": rule}); !ok || v != float64(slo.Resolved) {
			t.Errorf("vqoe_alert_state{rule=%q} = %v (present=%v), want %d", rule, v, ok, slo.Resolved)
		}
		for _, to := range []string{"pending", "firing", "resolved"} {
			if v, ok := sampleValue(fams, "vqoe_alert_transitions_total", map[string]string{"rule": rule, "to": to}); !ok || v < 1 {
				t.Errorf("vqoe_alert_transitions_total{rule=%q,to=%q} = %v (present=%v), want >= 1", rule, to, v, ok)
			}
		}
	}

	// Finally the JSONL log tells the same story, in order, and every
	// firing entered from pending.
	trans := map[string][]slo.Transition{}
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var tr slo.Transition
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("alert log line %q: %v", sc.Text(), err)
		}
		trans[tr.Rule] = append(trans[tr.Rule], tr)
	}
	for _, rule := range []string{"drop-rate", "model-degraded"} {
		var tos []string
		for _, tr := range trans[rule] {
			tos = append(tos, tr.To)
			if tr.To == "firing" && tr.From != "pending" {
				t.Errorf("alert log: %s fired from %q, pending must never be skipped", rule, tr.From)
			}
		}
		if !containsSubsequence(tos, []string{"pending", "firing", "resolved"}) {
			t.Errorf("alert log for %s records %v, want pending→firing→resolved", rule, tos)
		}
	}
}

// containsSubsequence reports whether want appears in order (not
// necessarily contiguously) within have.
func containsSubsequence[T comparable](have, want []T) bool {
	i := 0
	for _, v := range have {
		if i < len(want) && v == want[i] {
			i++
		}
	}
	return i == len(want)
}

// sampleValue finds one exposition sample by family and exact labels.
func sampleValue(fams map[string]*promFamily, family string, labels map[string]string) (float64, bool) {
	f, ok := fams[family]
	if !ok {
		return 0, false
	}
	for _, s := range f.samples {
		if len(s.labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}
