package pipeline

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/slo"
)

// A hostile or misconfigured metadata feed minting unbounded cohort
// keys must not explode the exposition's label space: the rollup's
// cap holds, the overflow bucket appears, and the output stays
// deterministic and sorted.
func TestCohortExpositionCardinalityCap(t *testing.T) {
	const cap = 5
	r := cohort.NewRollup(cohort.Config{Shards: 2, MaxCohorts: cap})
	for i := 0; i < 100; i++ {
		key := cohort.Key{Region: fmt.Sprintf("rogue-%03d", i), Device: "tv", Cap: "hd"}
		r.Observe(i%2, key, core.Report{Stall: features.MildStall, Representation: features.SD, Chunks: 9})
	}
	m := NewMetrics()
	m.SetRuntimeMetrics(false)
	// the uptime gauge would otherwise differ between the two renders
	// compared below whenever they straddle a millisecond
	start := time.Unix(1_700_000_000, 0)
	m.SetProcessClock(start, func() time.Time { return start.Add(time.Minute) })
	cohortTelemetry(m, slo.New(slo.Config{Manual: true}), r)

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := parsePromText(buf.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	validatePromFamilies(t, fams)

	sess := fams["vqoe_cohort_sessions_total"]
	if sess == nil {
		t.Fatal("vqoe_cohort_sessions_total missing")
	}
	values := map[string]bool{}
	var order []string
	var total float64
	for _, s := range sess.samples {
		values[s.labels["cohort"]] = true
		order = append(order, s.labels["cohort"])
		total += s.value
	}
	if !values["overflow"] {
		t.Error("overflow bucket missing from exposition after cap eviction")
	}
	if len(values) > cap+1 {
		t.Errorf("label explosion: %d cohort values exceed cap %d + overflow", len(values), cap)
	}
	if total != 100 {
		t.Errorf("sessions across series sum to %g, want 100 (none lost to eviction)", total)
	}
	if !sort.StringsAreSorted(order) {
		t.Errorf("cohort label values not sorted: %v", order)
	}

	// every cohort series carries the three summary quantiles
	mosQ := map[string]map[string]bool{}
	for _, s := range fams["vqoe_cohort_mos"].samples {
		if s.name != "vqoe_cohort_mos" {
			continue
		}
		c := s.labels["cohort"]
		if mosQ[c] == nil {
			mosQ[c] = map[string]bool{}
		}
		mosQ[c][s.labels["quantile"]] = true
	}
	for c, qs := range mosQ {
		for _, q := range []string{"0.1", "0.5", "0.9"} {
			if !qs[q] {
				t.Errorf("cohort %s missing quantile %s", c, q)
			}
		}
	}

	// deterministic: a second render of the same state is byte-identical
	var buf2 bytes.Buffer
	if _, err := m.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("exposition differs between renders of the same rollup state")
	}
}

// Before any session is assessed the cohort families are suppressed
// entirely rather than declared empty.
func TestCohortExpositionSuppressedWhenEmpty(t *testing.T) {
	m := NewMetrics()
	m.SetRuntimeMetrics(false)
	cohortTelemetry(m, slo.New(slo.Config{Manual: true}), cohort.NewRollup(cohort.Config{Shards: 1}))
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("vqoe_cohort_")) {
		t.Errorf("empty rollup leaked cohort families:\n%s", buf.String())
	}
}
