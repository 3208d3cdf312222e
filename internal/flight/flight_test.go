package flight

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/mos"
	"vqoe/internal/stats"
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
	exemplars := rec.Exemplars()
	if got := exemplars["model/stall"]; len(got) != 1 || !strings.HasPrefix(got[0], "sub-unsure/") {
		t.Fatalf("model/stall exemplars = %v", got)
	}
	if got := exemplars["model/rep"]; len(got) != 0 {
		t.Fatalf("model/rep exemplars = %v, want none (rep was confident)", got)
	}

	// cohort exemplars: both retained sessions share the cohort key,
	// worst MOS first
	ex := exemplars["eu-west/mobile/50"]
	if len(ex) != 2 || !strings.HasPrefix(ex[0], "sub-stall/") {
		t.Fatalf("cohort exemplars = %v, want stalled session first", ex)
	}
}

func TestFlightWorstDecilePolicy(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1})
	rec.lowConfidence = 0 // low_confidence policy off
	sh := rec.Shard(0)

	// warm the shard's tally past its floor with healthy HD sessions,
	// then close one LD session: lower MOS than everything seen, so it
	// lands below the 10th percentile
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

// TestWorstMOSRuleIsExactDecile: after the warm-up, Decide flags
// worst_mos exactly when the session's score is strictly below the 10th
// percentile of every score the shard has decided on, its own included,
// so no more than a decile of the shard's sessions is ever flagged.
func TestWorstMOSRuleIsExactDecile(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: -1})
	rec.lowConfidence = 0
	sh := rec.Shard(0)
	rng := rand.New(rand.NewSource(9))
	var scores []float64
	flagged := 0
	for i := 0; i < 2000; i++ {
		rep := core.Report{
			Stall:          features.StallLabel(rng.Intn(3)),
			Representation: features.RepLabel(rng.Intn(3)),
			SwitchVariance: rng.Intn(3) == 0,
		}
		if i < 200 { // a healthy start, so the decile moves
			rep.Stall = features.NoStall
		}
		reasons, score, _ := sh.Decide(rep)
		if score != float64(mos.FromReport(rep)) {
			t.Fatalf("session %d: Decide scored %v, FromReport %v", i, score, mos.FromReport(rep))
		}
		scores = append(scores, score)
		want := len(scores) >= worstMinSamples && score < stats.Summarize(scores).Percentile(10)
		if got := reasons&ReasonWorstMOS != 0; got != want {
			t.Fatalf("session %d (score %v, p10 %v): worst_mos %v, want %v",
				i, score, stats.Summarize(scores).Percentile(10), got, want)
		}
		if want {
			flagged++
		}
	}
	if flagged == 0 || flagged == len(scores)-worstMinSamples+1 {
		t.Fatalf("vacuous fixture: %d of %d sessions flagged", flagged, len(scores))
	}
}

func TestFlightUniformSample(t *testing.T) {
	rec := New(Config{Shards: 1, SampleN: 4})
	rec.lowConfidence = 0
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
	off := New(Config{Shards: 1, SampleN: -1})
	off.lowConfidence = 0
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
	for _, id := range rec.Exemplars()["eu-west/mobile/50"] {
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
	rec := New(Config{Shards: 1, SampleN: -1})
	rec.maxEvents = 4
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
	if ex := rec.Exemplars()["model/stall"]; len(ex) != 1 || ex[0] != "sub/10" {
		t.Fatalf("model/stall exemplars after promotion = %v", ex)
	}
}

// TestObserveOutcomeKeepsBudget: a label event's bytes count against
// the shard's budget like a retention's, so a promotion that crosses it
// evicts oldest-first on the spot instead of waiting for the next
// Retain.
func TestObserveOutcomeKeepsBudget(t *testing.T) {
	retain := func(rec *Recorder, i int) {
		assess(rec.Shard(0), assessment(fmt.Sprintf("sub-%d", i), float64(i), stalledReport(45), videoChunks(float64(i), 45, 4)))
	}
	probe := New(Config{Shards: 1, SampleN: -1})
	retain(probe, 0)
	session := probe.Metrics().Bytes
	note := strings.Repeat("x", 400)
	if session < eventOverheadBytes+int64(len(note))+10 {
		t.Fatalf("fixture: a session accounts %d bytes, too few to pay for the label event", session)
	}

	// three sessions fill the budget to 10 bytes short of it
	rec := New(Config{Shards: 1, SampleN: -1, MaxBytes: 3*session + 10})
	for i := 0; i < 3; i++ {
		retain(rec, i)
	}
	if m := rec.Metrics(); m.Resident != 3 || m.Evicted != 0 {
		t.Fatalf("fixture: %+v, want three resident sessions", m)
	}
	rec.ObserveOutcome("sub-2", 2, 62, "stall", note)
	m := rec.Metrics()
	if m.Bytes > m.CapacityBytes {
		t.Fatalf("%d bytes resident after a promotion, budget %d", m.Bytes, m.CapacityBytes)
	}
	if m.Evicted != 1 || rec.Get("sub-0", 0) != nil || rec.Get("sub-2", 2) == nil {
		t.Errorf("promotion evicted %d sessions, want the oldest alone: %+v", m.Evicted, m)
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
	if got := rec.Exemplars(); got != nil {
		t.Fatalf("nil recorder exemplars = %v", got)
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

// TestWriteWorst pins the closing worst-sessions report qoewatch,
// qoepcap and qoeserve print: silent on an empty snapshot and on a nil
// recorder, worst first, and never more than five rows.
func TestWriteWorst(t *testing.T) {
	var b strings.Builder
	Snapshot{}.WriteWorst(&b)
	(*Recorder)(nil).Snapshot().WriteWorst(&b)
	if b.Len() != 0 {
		t.Fatalf("empty snapshot printed %q", b.String())
	}

	snap := Snapshot{Counters: MetricsSnapshot{Recorded: 40, Retained: 7}}
	for i := 0; i < 7; i++ {
		snap.Retained = append(snap.Retained, IndexEntry{
			ID: fmt.Sprintf("sub%d/%d.5", i, 10*i), MOS: 1.5 + 0.25*float64(i),
			Verbal: "poor", Stall: "mild stalling", Entries: 12 + i,
			Reasons: []string{"stalled", "worst_mos"},
		})
	}
	snap.WriteWorst(&b)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("7 retained sessions printed %d lines, want a header and 5 rows:\n%s", len(lines), b.String())
	}
	if want := "-- worst sessions (7 retained of 40 recorded):"; lines[0] != want {
		t.Errorf("header %q, want %q", lines[0], want)
	}
	if want := "--   sub0/0.5                     mos 1.50 (poor)  stall mild stalling entries 12   kept: stalled,worst_mos"; lines[1] != want {
		t.Errorf("first row\n %q\nwant\n %q", lines[1], want)
	}
	if !strings.HasPrefix(lines[5], "--   sub4/40.5 ") {
		t.Errorf("last row %q, want the fifth-worst session sub4/40.5", lines[5])
	}
}

// TestExemplarsMatchLiveOracle drives a seeded stream of retentions,
// evictions and label promotions through two shards with small budgets
// — sessions in three cohorts and in none, some unsure of one model or
// both, labels for both models landing on live and on evicted sessions,
// MOS scores drawn from a few values so the order's ties are exercised
// — and after every step holds the exemplar read to a brute-force
// oracle over the live headers: per cohort label and per model, the
// exemplarsPerKey worst by exemplarLess, each session once. The oracle
// tracks model eligibility itself (a low-confidence retention with that
// model under the floor, or a label for that model that found the
// session retained), so the header bits are checked too.
func TestExemplarsMatchLiveOracle(t *testing.T) {
	rec := New(Config{Shards: 2, SampleN: -1, MaxBytes: 6 << 10})
	rng := rand.New(rand.NewSource(52))
	cohorts := []string{"eu-west/mobile/50", "us-east/tv/-", "ap-south/-/-", ""}
	eligible := map[string]uint8{} // session ID → models it is an exemplar of
	type ref struct {
		sub   string
		start float64
	}
	var retained []ref

	live := func() []*header {
		var hs []*header
		for _, s := range rec.shards {
			for seq := s.hdrs.head; seq < s.hdrs.tail; seq++ {
				hs = append(hs, s.hdrs.at(seq))
			}
		}
		return hs
	}
	oracle := func() map[string][]string {
		byKey := map[string][]exemplar{}
		for _, h := range live() {
			e := exemplar{h.mos, h.subscriber, h.start}
			if h.cohort != "" {
				byKey[h.cohort] = append(byKey[h.cohort], e)
			}
			bits := eligible[sessionID(h.subscriber, h.start)]
			if bits&exemplarStall != 0 {
				byKey["model/stall"] = append(byKey["model/stall"], e)
			}
			if bits&exemplarRep != 0 {
				byKey["model/rep"] = append(byKey["model/rep"], e)
			}
		}
		out := map[string][]string{}
		for key, es := range byKey {
			sort.Slice(es, func(i, j int) bool { return exemplarLess(&es[i], &es[j]) })
			for _, e := range es[:min(len(es), exemplarsPerKey)] {
				out[key] = append(out[key], sessionID(e.subscriber, e.start))
			}
		}
		return out
	}

	for step := 0; step < 3000; step++ {
		if step%4 == 3 && len(retained) > 0 {
			// a label for a recent retention, live or evicted by now
			r := retained[len(retained)-1-rng.Intn(min(len(retained), 40))]
			model := [2]string{"stall", "rep"}[rng.Intn(2)]
			for _, h := range live() {
				if h.subscriber == r.sub && h.start == r.start {
					eligible[sessionID(r.sub, r.start)] |= modelBit(model)
				}
			}
			rec.ObserveOutcome(r.sub, r.start, r.start+60, model, "predicted x, labeled y")
		} else {
			r := ref{fmt.Sprintf("sub-%d", rng.Intn(9)), float64(step)}
			rep := stalledReport(4)
			reasons := ReasonStalled
			if rng.Intn(3) == 0 {
				rep.StallConf, rep.RepConf = 0.3+0.5*rng.Float64(), 0.3+0.5*rng.Float64()
				reasons |= ReasonLowConfidence
				var bits uint8
				if rep.StallConf < lowConfidenceFloor {
					bits |= exemplarStall
				}
				if rep.RepConf < lowConfidenceFloor {
					bits |= exemplarRep
				}
				eligible[sessionID(r.sub, r.start)] = bits
			}
			a := assessment(r.sub, r.start, rep, videoChunks(r.start, 1+rng.Intn(12), 1))
			a.Cohort = cohorts[rng.Intn(len(cohorts))]
			rec.Shard(rng.Intn(2)).Retain(a, 1+0.5*float64(rng.Intn(5)), reasons)
			retained = append(retained, r)
		}
		got, want := rec.Exemplars(), oracle()
		if len(got) != len(want) {
			t.Fatalf("step %d: exemplar keys %v, oracle %v", step, got, want)
		}
		for key, ids := range want {
			if fmt.Sprint(got[key]) != fmt.Sprint(ids) {
				t.Fatalf("step %d: %s exemplars %q, oracle %q", step, key, got[key], ids)
			}
		}
	}
	if n := rec.Metrics().Evicted; n < 1000 {
		t.Fatalf("stream evicted %d sessions; the budget is too small a share of it to test backfill", n)
	}
}
