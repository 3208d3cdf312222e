package flight

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
)

// videoChunks synthesizes n chunk downloads, one requested every
// stepSec seconds starting at start, in the columnar form the engine's
// flow table buffers (Time is the chunk's end: request + transfer).
func videoChunks(start float64, n int, stepSec float64) []features.ChunkObs {
	out := make([]features.ChunkObs, n)
	for i := range out {
		out[i] = features.ChunkObs{
			Time:        start + float64(i)*stepSec + 0.8,
			SizeKB:      500,
			DurationSec: 0.8,
		}
	}
	return out
}

// goodReport is a confident healthy session; stalledReport a confident
// impaired one. Confidence defaults clear the low_confidence floor.
func goodReport(chunks int) core.Report {
	return core.Report{
		Stall: features.NoStall, Representation: features.HD,
		StallConf: 0.95, RepConf: 0.95, Chunks: chunks,
	}
}

func stalledReport(chunks int) core.Report {
	return core.Report{
		Stall: features.SevereStall, Representation: features.LD,
		StallConf: 0.9, RepConf: 0.9, Chunks: chunks,
	}
}

// assess runs Decide and, on a keep, Retain — what the engine's shard
// does around the lazily built Assessment.
func assess(s *ShardRecorder, a Assessment) {
	if reasons, score, ok := s.Decide(a.Report); ok {
		s.Retain(a, score, reasons)
	}
}

func assessment(sub string, start float64, rep core.Report, chunks []features.ChunkObs) Assessment {
	return Assessment{
		Subscriber: sub,
		Start:      start,
		End:        start + 60,
		Report:     rep,
		Chunks:     chunks,
		RawEntries: len(chunks),
		Cohort:     "eu-west/mobile/50",
		StallProj:  []float64{1.5, 42},
		RepProj:    []float64{0.25, 7},
	}
}

// testAttributor fakes the decision-path replay a drill-down render
// runs over the retained vectors.
func testAttributor(stallProj, repProj []float64, k int) ([]core.FeatureAttribution, []core.FeatureAttribution) {
	var stall, rep []core.FeatureAttribution
	if stallProj != nil {
		stall = []core.FeatureAttribution{{Feature: "ThroughputDown", Weight: 0.6}}
	}
	if repProj != nil {
		rep = []core.FeatureAttribution{{Feature: "AvgChunkKB", Weight: 0.5}}
	}
	return stall, rep
}

func TestFlightRetentionPolicies(t *testing.T) {
	// SampleN large enough that the uniform policy never fires here, so
	// every retention below is attributable to an outcome policy.
	rec := New(Config{Shards: 1, SampleN: 1 << 20})
	sh := rec.Shard(0)

	// healthy, confident, before the worst-decile warm-up: dropped
	assess(sh, assessment("sub-ok", 10, goodReport(8), videoChunks(10, 8, 4)))
	if got := rec.Metrics(); got.Recorded != 1 || got.Retained != 0 {
		t.Fatalf("healthy session: recorded %d retained %d, want 1/0", got.Recorded, got.Retained)
	}

	// stalled: always retained
	assess(sh, assessment("sub-stall", 20, stalledReport(8), videoChunks(20, 8, 6)))
	sn := rec.Snapshot()
	if len(sn.Retained) != 1 {
		t.Fatalf("stalled session not retained: %+v", sn.Retained)
	}
	if got := sn.Retained[0].Reasons; len(got) != 1 || got[0] != "stalled" {
		t.Fatalf("stalled reasons = %v", got)
	}
	if sn.Counters.ByReason["stalled"] != 1 {
		t.Fatalf("ByReason[stalled] = %d", sn.Counters.ByReason["stalled"])
	}

	// low confidence on either detector: retained and indexed as a
	// model exemplar for the unsure detector only
	lowConf := goodReport(8)
	lowConf.StallConf = 0.3
	assess(sh, assessment("sub-unsure", 30, lowConf, videoChunks(30, 8, 4)))
	sn = rec.Snapshot()
	found := false
	for _, e := range sn.Retained {
		if e.Subscriber == "sub-unsure" {
			found = true
			if len(e.Reasons) != 1 || e.Reasons[0] != "low_confidence" {
				t.Fatalf("low-confidence reasons = %v", e.Reasons)
			}
		}
	}
	if !found {
		t.Fatal("low-confidence session not retained")
	}
	if got := rec.ModelExemplars("stall"); len(got) != 1 || !strings.HasPrefix(got[0], "sub-unsure/") {
		t.Fatalf("model/stall exemplars = %v", got)
	}
	if got := rec.ModelExemplars("rep"); len(got) != 0 {
		t.Fatalf("model/rep exemplars = %v, want none (rep was confident)", got)
	}

	// cohort exemplars: both retained sessions share the cohort key,
	// worst MOS first
	ex := rec.ExemplarIDs("eu-west/mobile/50")
	if len(ex) != 2 || !strings.HasPrefix(ex[0], "sub-stall/") {
		t.Fatalf("cohort exemplars = %v, want stalled session first", ex)
	}
}

func TestFlightWorstDecilePolicy(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1, LowConfidence: -1})
	sh := rec.Shard(0)

	// warm the percentile estimator past its floor with healthy HD
	// sessions, then close one LD session: lower MOS than everything
	// seen, so it lands at or below the rolling P10
	for i := 0; i < 48; i++ {
		assess(sh, assessment("warm", float64(i*100), goodReport(8), nil))
	}
	ld := goodReport(8)
	ld.Representation = features.LD
	assess(sh, assessment("sub-worst", 9000, ld, videoChunks(9000, 8, 4)))

	sn := rec.Snapshot()
	if len(sn.Retained) == 0 {
		t.Fatal("worst-decile session not retained")
	}
	var worst *IndexEntry
	for i := range sn.Retained {
		if sn.Retained[i].Subscriber == "sub-worst" {
			worst = &sn.Retained[i]
		}
	}
	if worst == nil {
		t.Fatalf("sub-worst missing from index: %+v", sn.Retained)
	}
	has := false
	for _, r := range worst.Reasons {
		if r == "worst_mos" {
			has = true
		}
	}
	if !has {
		t.Fatalf("worst-decile reasons = %v", worst.Reasons)
	}
}

func TestFlightUniformSample(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: 4, LowConfidence: -1})
	sh := rec.Shard(0)
	for i := 0; i < 16; i++ {
		assess(sh, assessment("sub", float64(i*100), goodReport(8), nil))
	}
	sn := rec.Snapshot()
	if len(sn.Retained) != 4 {
		t.Fatalf("retained %d of 16 at SampleN=4, want 4", len(sn.Retained))
	}
	for _, e := range sn.Retained {
		if len(e.Reasons) != 1 || e.Reasons[0] != "uniform" {
			t.Fatalf("uniform sample reasons = %v", e.Reasons)
		}
	}

	// negative SampleN turns the uniform baseline off entirely
	off := New(Config{Shards: 1, SampleN: -1, LowConfidence: -1})
	osh := off.Shard(0)
	for i := 0; i < 16; i++ {
		assess(osh, assessment("sub", float64(i*100), goodReport(8), nil))
	}
	if got := off.Metrics().Retained; got != 0 {
		t.Fatalf("retained %d with uniform sampling off", got)
	}
}

// TestFlightEvictionHostileLoad mirrors TestCohortExpositionCardinalityCap:
// under sustained hostile load the ring must stay byte-bounded with
// evictions counted, the index sorted worst-first, and repeated renders
// byte-identical.
func TestFlightEvictionHostileLoad(t *testing.T) {
	const budget = 16 << 10
	rec := New(Config{Shards: 2, SampleN: -1, MaxBytes: budget})
	for i := 0; i < 400; i++ {
		sub := fmt.Sprintf("sub-%03d", i)
		sh := rec.Shard(i % 2)
		assess(sh, assessment(sub, float64(i*100), stalledReport(12), videoChunks(float64(i*100), 12, 5)))
	}

	m := rec.Metrics()
	if m.Retained != 400 {
		t.Fatalf("retained = %d, want 400 (every session stalled)", m.Retained)
	}
	if m.Evicted == 0 {
		t.Fatal("no evictions under hostile load")
	}
	if m.Resident != m.Retained-m.Evicted {
		t.Fatalf("resident %d != retained %d - evicted %d", m.Resident, m.Retained, m.Evicted)
	}
	if m.Bytes > m.CapacityBytes {
		t.Fatalf("resident bytes %d exceed capacity %d", m.Bytes, m.CapacityBytes)
	}

	sn := rec.Snapshot()
	if int64(len(sn.Retained)) != m.Resident {
		t.Fatalf("index has %d entries, resident %d", len(sn.Retained), m.Resident)
	}
	for i := 1; i < len(sn.Retained); i++ {
		a, b := sn.Retained[i-1], sn.Retained[i]
		if a.MOS > b.MOS || (a.MOS == b.MOS && a.Subscriber > b.Subscriber) ||
			(a.MOS == b.MOS && a.Subscriber == b.Subscriber && a.Start > b.Start) {
			t.Fatalf("index not sorted worst-first at %d: %+v then %+v", i, a, b)
		}
	}

	// byte-identical re-render: the index order is total, so an idle
	// recorder serializes identically every time
	j1, err := json.Marshal(rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("snapshot renders differ between calls on an idle recorder")
	}

	// exemplar links never point at evicted sessions
	for _, id := range rec.ExemplarIDs("eu-west/mobile/50") {
		slash := strings.LastIndex(id, "/")
		start, err := strconv.ParseFloat(id[slash+1:], 64)
		if err != nil {
			t.Fatalf("exemplar id %q: %v", id, err)
		}
		if rec.Get(id[:slash], start) == nil {
			t.Fatalf("exemplar %q points at an evicted session", id)
		}
	}
}

func TestFlightMaxEventsTruncation(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1, MaxEvents: 4})
	sh := rec.Shard(0)
	assess(sh, assessment("sub", 10, stalledReport(10), videoChunks(10, 10, 5)))

	got := rec.Get("sub", 10)
	if got == nil {
		t.Fatal("stalled session not retained")
	}
	if got.Truncated != 6 {
		t.Fatalf("truncated = %d, want 6 (10 chunks, 4 kept)", got.Truncated)
	}
	if m := rec.Metrics(); m.TruncatedEvents != 6 {
		t.Fatalf("TruncatedEvents counter = %d, want 6", m.TruncatedEvents)
	}
	chunks := 0
	for _, ev := range got.Timeline {
		if ev.Kind == "chunk" {
			chunks++
		}
	}
	if chunks != 4 {
		t.Fatalf("timeline kept %d chunk events, want 4", chunks)
	}
}

func TestFlightTimelineShape(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1})
	rec.SetAttributor(testAttributor)
	sh := rec.Shard(0)
	// chunks 5s apart with 0.8s transactions leave ~4.2s silences; the
	// stalled policy synthesizes the largest as gap events
	assess(sh, assessment("sub", 10, stalledReport(8), videoChunks(10, 8, 5)))

	got := rec.Get("sub", 10)
	if got == nil {
		t.Fatal("session not retained")
	}
	kinds := map[string]int{}
	for _, ev := range got.Timeline {
		kinds[ev.Kind]++
	}
	if kinds["chunk"] != 8 {
		t.Fatalf("chunk events = %d, want 8", kinds["chunk"])
	}
	if kinds["gap"] == 0 || kinds["gap"] > maxGapEvents {
		t.Fatalf("gap events = %d, want 1..%d", kinds["gap"], maxGapEvents)
	}
	for _, k := range []string{"features", "stall_verdict", "rep_verdict", "switch", "mos", "cohort"} {
		if kinds[k] != 1 {
			t.Fatalf("%s events = %d, want exactly 1 (timeline: %v)", k, kinds[k], kinds)
		}
	}
	for i := 1; i < len(got.Timeline); i++ {
		if got.Timeline[i].TS < got.Timeline[i-1].TS {
			t.Fatalf("timeline out of order at %d: %v", i, got.Timeline)
		}
	}
	// verdict events carry attributions replayed at render time from
	// the retained projected vectors
	for _, ev := range got.Timeline {
		if ev.Kind == "stall_verdict" && (len(ev.Attributions) == 0 || ev.Attributions[0].Feature != "ThroughputDown") {
			t.Fatalf("stall verdict attributions = %v", ev.Attributions)
		}
		if ev.Kind == "rep_verdict" && (len(ev.Attributions) == 0 || ev.Attributions[0].Feature != "AvgChunkKB") {
			t.Fatalf("rep verdict attributions = %v", ev.Attributions)
		}
	}
}

func TestFlightObserveOutcome(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1})
	sh := rec.Shard(0)
	assess(sh, assessment("sub", 10, stalledReport(8), videoChunks(10, 8, 5)))

	// a label for a session that was never retained is a no-op
	rec.ObserveOutcome("ghost", 99, 150, "stall", "predicted no stalls, labeled severe stalls")
	if got := rec.Metrics().ByReason["labeled_wrong"]; got != 0 {
		t.Fatalf("labeled_wrong = %d after no-op promotion", got)
	}

	rec.ObserveOutcome("sub", 10, 70, "stall", "predicted severe stalls, labeled no stalls")
	got := rec.Get("sub", 10)
	if got == nil {
		t.Fatal("session vanished after promotion")
	}
	hasReason, hasLabel := false, false
	for _, r := range got.Reasons {
		if r == "labeled_wrong" {
			hasReason = true
		}
	}
	for _, ev := range got.Timeline {
		if ev.Kind == "label" && strings.Contains(ev.Note, "labeled no stalls") {
			hasLabel = true
		}
	}
	if !hasReason || !hasLabel {
		t.Fatalf("promotion missing reason (%v) or label event (%v): %+v", hasReason, hasLabel, got)
	}
	if ex := rec.ModelExemplars("stall"); len(ex) != 1 || ex[0] != "sub/10" {
		t.Fatalf("model/stall exemplars after promotion = %v", ex)
	}
}

func TestFlightChromeTrace(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1})
	sh := rec.Shard(0)
	assess(sh, assessment("sub", 10, stalledReport(8), videoChunks(10, 8, 5)))

	evs := rec.ChromeTrace("sub", 10)
	if len(evs) == 0 {
		t.Fatal("no trace events for retained session")
	}
	spans, instants := 0, 0
	for _, ce := range evs {
		switch ce.Phase {
		case "X":
			spans++
			if ce.Dur < 1 {
				t.Fatalf("span %q has sub-microsecond duration %v", ce.Name, ce.Dur)
			}
		case "i":
			instants++
			if ce.Scope != "t" {
				t.Fatalf("instant %q scope = %q, want t", ce.Name, ce.Scope)
			}
		default:
			t.Fatalf("unexpected phase %q", ce.Phase)
		}
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("trace has %d spans and %d instants, want both", spans, instants)
	}
	if rec.ChromeTrace("ghost", 99) != nil {
		t.Fatal("trace for unknown session should be nil")
	}
}

func TestFlightNilSafety(t *testing.T) {
	if New(Config{Disabled: true}) != nil {
		t.Fatal("Disabled config should yield a nil recorder")
	}
	var rec *Recorder
	sh := rec.Shard(0)
	if sh != nil {
		t.Fatal("nil recorder should hand out nil shards")
	}
	sh.Discard()
	assess(sh, assessment("sub", 10, stalledReport(8), nil))
	rec.ObserveOutcome("sub", 10, 70, "stall", "x")
	if got := rec.ExemplarIDs("cohort/x"); got != nil {
		t.Fatalf("nil recorder exemplars = %v", got)
	}
	if got := rec.ModelExemplars("stall"); got != nil {
		t.Fatalf("nil recorder model exemplars = %v", got)
	}
	if got := rec.Get("sub", 10); got != nil {
		t.Fatalf("nil recorder Get = %v", got)
	}
	if got := rec.ChromeTrace("sub", 10); got != nil {
		t.Fatalf("nil recorder ChromeTrace = %v", got)
	}
	sn := rec.Snapshot()
	if sn.Retained == nil || len(sn.Retained) != 0 {
		t.Fatalf("nil recorder snapshot retained = %v, want empty non-nil", sn.Retained)
	}
	m := rec.Metrics()
	if len(m.ByReason) != NumReasons {
		t.Fatalf("nil recorder ByReason = %v, want all %d policies at zero", m.ByReason, NumReasons)
	}
}

func TestFlightSessionIDRoundTrip(t *testing.T) {
	for _, start := range []float64{0, 10, 123.456789012345, 1e9 + 0.25, 0.000001} {
		id := sessionID("sub", start)
		slash := strings.LastIndex(id, "/")
		back, err := strconv.ParseFloat(id[slash+1:], 64)
		if err != nil {
			t.Fatalf("id %q: %v", id, err)
		}
		if back != start {
			t.Fatalf("id %q parsed back to %v, want %v", id, back, start)
		}
	}
}
