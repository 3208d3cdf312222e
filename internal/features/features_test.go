package features

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"vqoe/internal/netsim"
	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
	"vqoe/internal/weblog"
)

func sessionObs(t *testing.T, seed int64, encrypted bool) (SessionObs, *player.SessionTrace) {
	t.Helper()
	r := stats.NewRand(seed)
	cat := video.NewCatalog(1, r)
	v := cat.Videos[0]
	v.Duration = 120
	net := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Cond: netsim.Conditions{BandwidthBps: 3e6, RTT: 0.08, LossProb: 0.003}},
	}}
	tr := player.Run(v, net, player.DefaultConfig(player.Adaptive), r.Fork())
	entries := weblog.FromTrace(tr, weblog.Options{Encrypted: encrypted})
	return FromEntries(entries), tr
}

func TestFromEntriesMediaOnlyAndRebased(t *testing.T) {
	obs, tr := sessionObs(t, 1, false)
	if obs.Len() != len(tr.Chunks) {
		t.Errorf("obs has %d chunks, trace has %d", obs.Len(), len(tr.Chunks))
	}
	if obs.Chunks[0].Time != 0 {
		t.Errorf("first chunk time %v, want 0 (rebased)", obs.Chunks[0].Time)
	}
	for i := 1; i < obs.Len(); i++ {
		if obs.Chunks[i].Time < obs.Chunks[i-1].Time {
			t.Fatal("chunks not time-ordered")
		}
	}
}

func TestEncryptedAndCleartextFeaturesAgree(t *testing.T) {
	clear, _ := sessionObs(t, 2, false)
	enc, _ := sessionObs(t, 2, true)
	// identical session rendered in both views must produce identical
	// feature vectors — this is the property that lets a
	// cleartext-trained model run on encrypted traffic
	cf := StallFeatures(clear)
	ef := StallFeatures(enc)
	for i := range cf {
		if math.Abs(cf[i]-ef[i]) > 1e-9 {
			t.Fatalf("feature %d differs: %v vs %v", i, cf[i], ef[i])
		}
	}
}

func TestStallFeatureDimensions(t *testing.T) {
	names := StallFeatureNames()
	if len(names) != 70 {
		t.Fatalf("stall set has %d features, want 70", len(names))
	}
	obs, _ := sessionObs(t, 3, false)
	vec := StallFeatures(obs)
	if len(vec) != 70 {
		t.Fatalf("stall vector has %d values, want 70", len(vec))
	}
	// the paper's Table 2 features must exist under these names
	for _, want := range []string{"chunk size min", "chunk size std", "BDP mean", "packet retransmissions max"} {
		if !containsName(names, want) {
			t.Errorf("missing feature %q", want)
		}
	}
}

func TestRepFeatureDimensions(t *testing.T) {
	names := RepFeatureNames()
	if len(names) != 210 {
		t.Fatalf("rep set has %d features, want 210", len(names))
	}
	obs, _ := sessionObs(t, 4, false)
	vec := RepFeatures(obs)
	if len(vec) != 210 {
		t.Fatalf("rep vector has %d values, want 210", len(vec))
	}
	// Table 5 names
	for _, want := range []string{
		"chunk size 75%", "chunk size 85%", "chunk size 90%", "chunk size 50%",
		"chunk size max", "chunk avg size mean", "BIF avg max",
		"cusum throughput min", "chunk Δsize max", "chunk size std",
		"chunk Δsize std", "chunk Δt 25%", "BDP 90%", "BIF maximum min",
		"RTT minimum min",
	} {
		if !containsName(names, want) {
			t.Errorf("missing feature %q", want)
		}
	}
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func TestFeatureVectorFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		obs := SessionObs{}
		n := r.Intn(20)
		tm := 0.0
		for i := 0; i < n; i++ {
			tm += r.Float64() * 10
			obs.Chunks = append(obs.Chunks, ChunkObs{
				Time: tm, SizeKB: r.Float64() * 1000, DurationSec: r.Float64() * 5,
				RTTAvg: r.Float64(), BDP: r.Float64() * 1e5,
			})
		}
		for _, v := range append(StallFeatures(obs), RepFeatures(obs)...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptySessionFeaturesAreZero(t *testing.T) {
	var obs SessionObs
	for _, v := range StallFeatures(obs) {
		if v != 0 {
			t.Fatal("empty session should produce zero features")
		}
	}
	if len(RepFeatures(obs)) != 210 {
		t.Error("dimension must not depend on data")
	}
}

func TestChunkSizeMinTracksQualityDrop(t *testing.T) {
	// two synthetic sessions: one steady, one whose chunk sizes crater
	steady := SessionObs{}
	dropped := SessionObs{}
	for i := 0; i < 40; i++ {
		c := ChunkObs{Time: float64(i) * 5, SizeKB: 600, DurationSec: 1}
		steady.Chunks = append(steady.Chunks, c)
		if i > 20 {
			c.SizeKB = 80 // post-stall small chunks
		}
		dropped.Chunks = append(dropped.Chunks, c)
	}
	names := StallFeatureNames()
	idx := indexOf(names, "chunk size min")
	sv := StallFeatures(steady)[idx]
	dv := StallFeatures(dropped)[idx]
	if dv >= sv {
		t.Errorf("chunk size min should drop: steady %v, dropped %v", sv, dv)
	}
	stdIdx := indexOf(names, "chunk size std")
	if StallFeatures(dropped)[stdIdx] <= StallFeatures(steady)[stdIdx] {
		t.Error("chunk size std should rise for the session with a quality crater")
	}
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

func TestLabelStall(t *testing.T) {
	cases := []struct {
		rr   float64
		want StallLabel
	}{
		{0, NoStall}, {-0.1, NoStall},
		{0.001, MildStall}, {0.1, MildStall},
		{0.100001, SevereStall}, {0.9, SevereStall},
	}
	for _, c := range cases {
		if got := LabelStall(c.rr); got != c.want {
			t.Errorf("LabelStall(%v) = %v, want %v", c.rr, got, c.want)
		}
	}
	if NoStall.String() != "no stalls" || SevereStall.String() != "severe stalls" {
		t.Error("stall label names wrong")
	}
}

func TestLabelRepresentation(t *testing.T) {
	cases := []struct {
		mu   float64
		want RepLabel
	}{
		{144, LD}, {359.9, LD},
		{360, SD}, {480, SD},
		{480.1, HD}, {1080, HD},
	}
	for _, c := range cases {
		if got := LabelRepresentation(c.mu); got != c.want {
			t.Errorf("LabelRepresentation(%v) = %v, want %v", c.mu, got, c.want)
		}
	}
	if LD.String() != "LD" || HD.String() != "HD" {
		t.Error("rep label names wrong")
	}
}

func TestVariationAndLabel(t *testing.T) {
	if Variation(0, 0) != 0 {
		t.Error("no switches → Var 0")
	}
	if LabelVariation(0) != NoVariation {
		t.Error("Var 0 should be no variation")
	}
	v := Variation(2, 200)
	if LabelVariation(v) != MildVariation {
		t.Errorf("Var %v should be mild", v)
	}
	if LabelVariation(Variation(8, 400)) != HighVariation {
		t.Error("many large switches should be high variation")
	}
	if MildVariation.String() != "mild variation" {
		t.Error("var label names wrong")
	}
}

func TestSwitchSeriesStartupFilter(t *testing.T) {
	obs := SessionObs{}
	for i := 0; i < 30; i++ {
		obs.Chunks = append(obs.Chunks, ChunkObs{
			Time: float64(i), SizeKB: 100 + float64(i),
		})
	}
	series := SwitchSeries(obs, StartupFilterSec)
	// chunks at t >= 10 remain: 20 chunks → 19 deltas
	if len(series) != 19 {
		t.Errorf("series length %d, want 19", len(series))
	}
	if SwitchSeries(SessionObs{}, StartupFilterSec) != nil {
		t.Error("empty session should return nil")
	}
	short := SessionObs{Chunks: []ChunkObs{{Time: 11}, {Time: 12}}}
	if SwitchSeries(short, StartupFilterSec) != nil {
		t.Error("too-short session should return nil")
	}
}

func TestSwitchSeriesProductUnits(t *testing.T) {
	// Δsize = +200 KB, Δt = 2 s → product 400 KB·s
	obs := SessionObs{Chunks: []ChunkObs{
		{Time: 20, SizeKB: 100},
		{Time: 22, SizeKB: 300},
		{Time: 24, SizeKB: 300},
	}}
	series := SwitchSeries(obs, StartupFilterSec)
	if len(series) != 2 {
		t.Fatalf("series %v", series)
	}
	if math.Abs(series[0]-400) > 1e-9 {
		t.Errorf("product = %v, want 400", series[0])
	}
	if series[1] != 0 {
		t.Errorf("steady product = %v, want 0", series[1])
	}
}

func TestThroughputKBps(t *testing.T) {
	c := ChunkObs{SizeKB: 500, DurationSec: 2}
	if c.ThroughputKBps() != 250 {
		t.Errorf("throughput = %v", c.ThroughputKBps())
	}
	if (ChunkObs{SizeKB: 10}).ThroughputKBps() != 0 {
		t.Error("zero duration should yield 0")
	}
}

func TestRunningMean(t *testing.T) {
	got := runningMean([]float64{2, 4, 6})
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("runningMean = %v, want %v", got, want)
		}
	}
}

// sameFloat is the evaluator's contract with the dense oracle
// (dense_test.go) on arbitrary selections: bit-for-bit, except that
// mixed-sign zeros compare with == (which of two equal zeros a sort
// leaves first is the sort's business) and a NaN matches a NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// randomObs draws a session of n chunks. A hostile one carries NaN,
// ±Inf and signed zeros in any field, Time included; ordered ones pass
// through finishChunks like every observation the live path builds.
func randomObs(r *stats.Rand, n int, hostile, ordered bool) SessionObs {
	odd := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	draw := func(scale float64) float64 {
		if hostile && r.Intn(6) == 0 {
			return odd[r.Intn(len(odd))]
		}
		if r.Intn(4) == 0 {
			return scale * float64(r.Intn(3)) // ties
		}
		return scale * r.Float64()
	}
	obs := SessionObs{Chunks: make([]ChunkObs, n)}
	for i := range obs.Chunks {
		obs.Chunks[i] = ChunkObs{
			Time: draw(300), SizeKB: draw(900), DurationSec: draw(2),
			RTTMin: draw(0.1), RTTAvg: draw(0.2), RTTMax: draw(0.4),
			BDP: draw(1e5), BIFAvg: draw(5e4), BIFMax: draw(1e5),
			LossPct: draw(3), RetransPct: draw(3),
		}
	}
	if ordered {
		finishChunks(obs.Chunks)
	}
	return obs
}

// randomCols draws k columns of a width-wide schema: absent (-1)
// columns, duplicates, and clusters on one metric included.
func randomCols(r *stats.Rand, k, width, perMetric int) []int {
	cols := make([]int, k)
	for i := range cols {
		switch r.Intn(8) {
		case 0:
			cols[i] = -1
		case 1:
			if i > 0 {
				cols[i] = cols[i-1] // duplicate
				continue
			}
			fallthrough
		case 2:
			cols[i] = r.Intn(3) * perMetric // a min column: scan-only groups
		default:
			cols[i] = r.Intn(width)
		}
	}
	return cols
}

// TestSparseMatchesDenseProperty: over randomized sessions — real
// player traces, and drawn ones of 0 to 69 chunks carrying NaN, ±Inf,
// signed zeros and unordered times — and randomized column subsets of
// both schemas (stall-only, rep-only, absent, duplicate and repeated-
// metric columns), the two-model evaluator and the two one-model
// evaluators must each agree with building the oracle's dense vectors
// (dense_test.go) and projecting them: the property the live close path
// relies on to
// extract each metric once and skip the passes nothing selected. In
// particular the min/max scan must reproduce sort.Float64s'
// sorted[0]/sorted[N-1], NaNs sorting first.
func TestSparseMatchesDenseProperty(t *testing.T) {
	r := stats.NewRand(91)
	nStall, nRep := len(StallFeatureNames()), len(RepFeatureNames())
	stale := func(k int) []float64 {
		dst := make([]float64, k)
		for i := range dst {
			dst[i] = -12345 // stale scratch content must be overwritten
		}
		return dst
	}
	var sc SeriesScratch // shared across every session, like a shard's
	for trial := 0; trial < 600; trial++ {
		var obs SessionObs
		switch {
		case trial < 12:
			obs, _ = sessionObs(t, int64(100+trial), trial%2 == 0)
		case trial < 24:
			obs = randomObs(r, trial%3, trial%2 == 0, true) // 0, 1, 2 chunks
		default:
			obs = randomObs(r, r.Intn(70), trial%2 == 0, trial%3 != 0)
		}
		denseStall, denseRep := denseStallFeatures(obs), denseRepFeatures(obs)
		stallCols := randomCols(r, r.Intn(13), nStall, len(stallStats))
		repCols := randomCols(r, r.Intn(13), nRep, len(repStats))
		check := func(what string, cols []int, got, dense []float64) {
			t.Helper()
			for i, j := range cols {
				want := 0.0
				if j >= 0 {
					want = dense[j]
				}
				if !sameFloat(got[i], want) {
					t.Fatalf("trial %d (%d chunks) %s col %d (full %d): sparse %v != dense %v",
						trial, obs.Len(), what, i, j, got[i], want)
				}
			}
		}

		stall, rep := stale(len(stallCols)), stale(len(repCols))
		NewSparse(stallCols, repCols).EvalBoth(obs, stall, rep, &sc)
		check("two-model stall", stallCols, stall, denseStall)
		check("two-model rep", repCols, rep, denseRep)

		stall, rep = stale(len(stallCols)), stale(len(repCols))
		NewStallSparse(stallCols).EvalIntoScratch(obs, stall, &sc)
		NewRepSparse(repCols).EvalIntoScratch(obs, rep, new(SeriesScratch))
		check("one-model stall", stallCols, stall, denseStall)
		check("one-model rep", repCols, rep, denseRep)
	}
}

// TestFeatureVectorsPinned pins the values themselves across PRs:
// FNV-64a over the bits of StallFeatures ‖ RepFeatures for 64 seeded
// player sessions, each in its cleartext and its encrypted view. Every
// other test here compares one implementation with another; this one
// would catch both drifting together. The constant was computed at
// d8b0c16, when the dense builder (dense_test.go) was still the product
// path.
func TestFeatureVectorsPinned(t *testing.T) {
	const want = 0x7105a0f71a865dc1
	h := fnv.New64a()
	var b [8]byte
	for seed := int64(1); seed <= 64; seed++ {
		for _, encrypted := range []bool{false, true} {
			obs, _ := sessionObs(t, seed, encrypted)
			for _, v := range append(StallFeatures(obs), RepFeatures(obs)...) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("feature vectors hash to %#x, pinned %#x: the values the models train on and serve from changed", got, want)
	}
}

// TestFullWidthMatchesDenseBitwise holds StallFeatures and RepFeatures —
// the full-width evaluator every training vector now comes from — to
// the dense oracle with Float64bits equality, stricter than sameFloat:
// on player traces not even the sign of a zero may differ (that is what
// keeps model files byte-identical across the change). Drawn sessions
// carrying NaN, ±Inf, signed zeros and unordered times may differ in
// which of two equal zeros a sort left first and in nothing else; those
// are counted and reported.
func TestFullWidthMatchesDenseBitwise(t *testing.T) {
	diff := func(what string, obs SessionObs, got, want []float64, tolerateZeroSign bool) (n int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) == math.Float64bits(want[j]) {
				continue
			}
			if tolerateZeroSign && got[j] == 0 && want[j] == 0 {
				n++
				continue
			}
			t.Fatalf("%s (%d chunks) col %d: full-width %v (%#x) != dense %v (%#x)", what, obs.Len(), j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
		return n
	}
	for seed := int64(700); seed < 748; seed++ {
		obs, _ := sessionObs(t, seed, seed%2 == 0)
		diff("trace stall", obs, StallFeatures(obs), denseStallFeatures(obs), false)
		diff("trace rep", obs, RepFeatures(obs), denseRepFeatures(obs), false)
	}
	r := stats.NewRand(23)
	flips := 0
	for trial := 0; trial < 600; trial++ {
		obs := randomObs(r, r.Intn(70), trial%2 == 0, trial%3 != 0)
		flips += diff("drawn stall", obs, StallFeatures(obs), denseStallFeatures(obs), true)
		flips += diff("drawn rep", obs, RepFeatures(obs), denseRepFeatures(obs), true)
	}
	t.Logf("zero-sign differences over 600 drawn sessions × 280 columns: %d", flips)
}

// TestEvalBothAllocatesNothing pins the close path's featurization at
// zero allocations once the series scratch has grown, for the shape of
// selection the bench-trained forests make (percentiles, std, mean,
// and min/max-only metrics across both models).
func TestEvalBothAllocatesNothing(t *testing.T) {
	names := func(all []string, want ...string) []int {
		cols := make([]int, len(want))
		for i, w := range want {
			if cols[i] = slices.Index(all, w); cols[i] < 0 {
				t.Fatalf("no feature named %q", w)
			}
		}
		return cols
	}
	stallCols := names(StallFeatureNames(), "chunk time 25%", "chunk size min", "chunk size 50%",
		"BIF avg min", "RTT maximum max", "packet loss max")
	repCols := names(RepFeatureNames(), "chunk size 75%", "chunk size 90%", "chunk size std", "chunk size max",
		"chunk Δsize 15%", "chunk Δsize mean", "cusum throughput max")
	sp := NewSparse(stallCols, repCols)
	obs := benchObs(45)
	stall, rep := make([]float64, len(stallCols)), make([]float64, len(repCols))
	var sc SeriesScratch
	sp.EvalBoth(obs, stall, rep, &sc)
	if allocs := testing.AllocsPerRun(200, func() { sp.EvalBoth(obs, stall, rep, &sc) }); allocs != 0 {
		t.Errorf("EvalBoth allocates %v times per session, want 0", allocs)
	}
}

// TestFinishChunksMatchesSortSlice: finishChunks returns before
// sort.Slice when the chunks already arrive in non-decreasing time
// order, which is only sound because sort.Slice is the identity on such
// input — and on any other input finishChunks must still leave exactly
// sort.Slice's permutation, ties included. Tie-heavy inputs (a handful
// of distinct times over up to 80 chunks, with SizeKB as the witness of
// which tied chunk went where) pin both.
func TestFinishChunksMatchesSortSlice(t *testing.T) {
	r := stats.NewRand(17)
	skipped := 0
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(81)
		chunks := make([]ChunkObs, n)
		distinct := 1 + r.Intn(6)
		for i := range chunks {
			chunks[i] = ChunkObs{Time: float64(10 + r.Intn(distinct)), SizeKB: float64(i)}
		}
		if trial%2 == 0 {
			sort.SliceStable(chunks, func(i, j int) bool { return chunks[i].Time < chunks[j].Time })
			for i := range chunks {
				chunks[i].SizeKB = float64(i)
			}
			skipped++
		}
		want := append([]ChunkObs(nil), chunks...)
		sort.Slice(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		if trial%2 == 0 {
			for i := range want {
				if want[i].SizeKB != float64(i) {
					t.Fatalf("trial %d: sort.Slice moved chunk %d of an ordered input to %d", trial, int(want[i].SizeKB), i)
				}
			}
		}
		if n > 0 {
			base := want[0].Time
			for i := range want {
				want[i].Time -= base
			}
		}
		finishChunks(chunks)
		for i := range chunks {
			if chunks[i] != want[i] {
				t.Fatalf("trial %d (%d chunks): chunk %d is %+v, sort.Slice + rebase leaves %+v", trial, n, i, chunks[i], want[i])
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no ordered input exercised the early return")
	}
}

// TestSparseEmptySession: a session with no chunks must produce an
// all-zero vector, matching the dense builder's N==0 path.
func TestSparseEmptySession(t *testing.T) {
	cols := []int{0, 5, 17, 33, -1}
	dst := []float64{1, 2, 3, 4, 5}
	NewStallSparse(cols).EvalIntoScratch(SessionObs{}, dst, new(SeriesScratch))
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %v, want 0 for empty session", i, v)
		}
	}
}

// TestEvalScratchReuseMatchesFresh drives one shared SeriesScratch
// through a sequence of sessions of wildly different sizes — including
// empty and single-chunk ones — and checks every vector is
// bit-identical to a fresh-scratch evaluation. This is the engine
// shard's usage pattern: stale buffer contents or capacities carried
// across sessions must never leak into a later vector.
func TestEvalScratchReuseMatchesFresh(t *testing.T) {
	var obsSeq []SessionObs
	for trial := 0; trial < 6; trial++ {
		o, _ := sessionObs(t, int64(300+trial), trial%2 == 0)
		obsSeq = append(obsSeq, o)
		obsSeq = append(obsSeq, SessionObs{})                     // empty between real sessions
		obsSeq = append(obsSeq, SessionObs{Chunks: o.Chunks[:1]}) // single chunk
	}
	cols := []int{0, 7, 33, 64, 101, 140, -1, 5}
	run := func(sparse *Sparse, width int) {
		var sc SeriesScratch
		for si, obs := range obsSeq {
			shared := make([]float64, width)
			fresh := make([]float64, width)
			sparse.EvalIntoScratch(obs, shared, &sc)
			sparse.EvalIntoScratch(obs, fresh, new(SeriesScratch))
			for i := range shared {
				if shared[i] != fresh[i] {
					t.Fatalf("session %d col %d: shared scratch %v != fresh %v",
						si, i, shared[i], fresh[i])
				}
			}
		}
	}
	run(NewStallSparse(cols[:5]), 5)
	run(NewRepSparse(cols), 8)
}

// TestSwitchSeriesIntoReuseMatchesFresh checks the buffer-reusing
// switch-series extraction against the allocating loop it replaced
// (denseSwitchSeries — SwitchSeries itself is SwitchSeriesInto now, so
// comparing those two would compare the function with itself) across a
// session sequence, including sessions short enough to yield no series
// (the buffer's capacity must survive those for the next session).
func TestSwitchSeriesIntoReuseMatchesFresh(t *testing.T) {
	var obsSeq []SessionObs
	for trial := 0; trial < 6; trial++ {
		o, _ := sessionObs(t, int64(500+trial), trial%2 == 1)
		obsSeq = append(obsSeq, o, SessionObs{}, SessionObs{Chunks: o.Chunks[:1]})
	}
	var buf []float64
	for si, obs := range obsSeq {
		had := cap(buf)
		buf = SwitchSeriesInto(obs, StartupFilterSec, buf)
		if cap(buf) < had {
			t.Fatalf("session %d: buffer capacity fell from %d to %d", si, had, cap(buf))
		}
		want := denseSwitchSeries(obs, StartupFilterSec)
		if fresh := SwitchSeries(obs, StartupFilterSec); (fresh == nil) != (want == nil) {
			t.Fatalf("session %d: SwitchSeries nil=%v, the parent's loop nil=%v", si, fresh == nil, want == nil)
		}
		if len(buf) != len(want) {
			t.Fatalf("session %d: into kept %d values, fresh %d", si, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("session %d value %d: %v != %v", si, i, buf[i], want[i])
			}
		}
	}
}

// TestFieldSetFromSelection: the field set a Sparse derives while it
// builds its plan is what its metrics read and no more — by name for
// the shapes the flow store's sizing rests on, and as a property: a
// session whose other fields are wiped evaluates to the same vectors.
func TestFieldSetFromSelection(t *testing.T) {
	stallNames, repNames := StallFeatureNames(), RepFeatureNames()
	col := func(names []string, want string) int {
		t.Helper()
		i := slices.Index(names, want)
		if i < 0 {
			t.Fatalf("no feature %q", want)
		}
		return i
	}
	all := func(n int) []int {
		cols := make([]int, n)
		for i := range cols {
			cols[i] = i
		}
		return cols
	}
	for _, tc := range []struct {
		what       string
		stall, rep []int
		want       FieldSet
	}{
		{"nothing selected", nil, nil, CoreFields},
		{"absent columns add nothing", []int{-1, -1}, []int{-1, len(repNames)}, CoreFields},
		{"Δsize and BIF avg", []int{col(stallNames, "BIF avg min")}, []int{col(repNames, "chunk Δsize 85%")},
			FieldTime | FieldSizeKB | FieldDurationSec | FieldBIFAvg},
		{"throughput series read size and duration", nil,
			[]int{col(repNames, "throughput 50%"), col(repNames, "cusum throughput max")}, CoreFields},
		{"the benchmark models' series", []int{col(stallNames, "chunk time max"), col(stallNames, "RTT maximum 75%")},
			[]int{col(repNames, "chunk size mean"), col(repNames, "packet loss std"), col(repNames, "BIF avg 25%")},
			CoreFields | FieldRTTMax | FieldBIFAvg | FieldLossPct},
		{"one model is enough", []int{col(stallNames, "packet retransmissions mean")}, []int{col(repNames, "RTT minimum 5%")},
			CoreFields | FieldRetransPct | FieldRTTMin},
		{"dense stall schema", all(len(stallNames)), nil, AllFields},
		{"dense rep schema", nil, all(len(repNames)), AllFields},
	} {
		if got := NewSparse(tc.stall, tc.rep).Fields(); got != tc.want {
			t.Errorf("%s: fields %#b, want %#b", tc.what, got, tc.want)
		}
	}
	if got := NewStallSparse([]int{col(stallNames, "BDP max")}).Fields(); got != CoreFields|FieldBDP {
		t.Errorf("one-model evaluator: fields %#b", got)
	}

	r := stats.NewRand(17)
	var sc SeriesScratch
	for trial := 0; trial < 300; trial++ {
		obs := randomObs(r, r.Intn(40), trial%2 == 0, true)
		stallCols := randomCols(r, r.Intn(5), len(stallNames), len(stallStats))
		repCols := randomCols(r, r.Intn(5), len(repNames), len(repStats))
		sp := NewSparse(stallCols, repCols)
		wiped := SessionObs{Chunks: slices.Clone(obs.Chunks)}
		for i := range wiped.Chunks {
			c, keep := &wiped.Chunks[i], sp.Fields()
			for b, f := range []*float64{&c.Time, &c.SizeKB, &c.DurationSec, &c.RTTMin, &c.RTTAvg, &c.RTTMax,
				&c.BDP, &c.BIFAvg, &c.BIFMax, &c.LossPct, &c.RetransPct} {
				if keep&(1<<b) == 0 {
					*f = 0
				}
			}
		}
		stall, rep := make([]float64, len(stallCols)), make([]float64, len(repCols))
		stallW, repW := make([]float64, len(stallCols)), make([]float64, len(repCols))
		sp.EvalBoth(obs, stall, rep, &sc)
		sp.EvalBoth(wiped, stallW, repW, &sc)
		for i := range stall {
			if math.Float64bits(stall[i]) != math.Float64bits(stallW[i]) {
				t.Fatalf("trial %d: stall slot %d reads a field outside %#b", trial, i, sp.Fields())
			}
		}
		for i := range rep {
			if math.Float64bits(rep[i]) != math.Float64bits(repW[i]) {
				t.Fatalf("trial %d: rep slot %d reads a field outside %#b", trial, i, sp.Fields())
			}
		}
	}
}
