package mos

import (
	"math"
	"testing"
	"testing/quick"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/netsim"
	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
)

func TestVerbal(t *testing.T) {
	cases := []struct {
		s    Score
		want string
	}{
		{5, "excellent"}, {4, "good"}, {3, "fair"}, {2, "poor"}, {1, "bad"},
	}
	for _, c := range cases {
		if got := c.s.Verbal(); got != c.want {
			t.Errorf("Verbal(%v) = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestStallMOSKnownValues(t *testing.T) {
	if StallMOS(0, 0) != 5 {
		t.Error("no stalls should be perfect")
	}
	// Hoßfeld: 2 stalls of 3 s → MOS well below 3 ("significantly
	// lower MOS", §2.2)
	got := StallMOS(2, 3)
	want := 3.5*math.Exp(-(0.15*3+0.19)*2) + 1.5
	if math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("StallMOS(2,3) = %v, want %v", got, want)
	}
	if got >= 3 {
		t.Errorf("2×3s stalls should score below 3, got %v", got)
	}
}

// Property: more stalls never improve the score; longer stalls never
// improve the score; the scale is respected.
func TestStallMOSMonotoneProperty(t *testing.T) {
	f := func(n uint8, durRaw float64) bool {
		dur := math.Abs(math.Mod(durRaw, 60))
		a := StallMOS(int(n%20), dur)
		b := StallMOS(int(n%20)+1, dur)
		c := StallMOS(int(n%20)+1, dur+5)
		return b <= a && c <= b && a >= 1 && a <= 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQualityMOSOrdering(t *testing.T) {
	prev := Score(0)
	for _, q := range []float64{144, 240, 360, 480, 720, 1080} {
		s := QualityMOS(q)
		if s <= prev {
			t.Fatalf("quality MOS not increasing at %v", q)
		}
		prev = s
	}
	if QualityMOS(0) != 1 {
		t.Error("no video should be bad")
	}
	if QualityMOS(1080) > 5 {
		t.Error("score above scale")
	}
}

func TestSwitchMOS(t *testing.T) {
	if SwitchMOS(0, 0) != 5 {
		t.Error("steady session should be perfect on this axis")
	}
	small := SwitchMOS(1, 120)
	big := SwitchMOS(1, 576)
	if big >= small {
		t.Error("larger amplitude should hurt more")
	}
	few := SwitchMOS(2, 240)
	many := SwitchMOS(8, 240)
	if many >= few {
		t.Error("more switches should hurt more")
	}
}

func TestSessionCombination(t *testing.T) {
	// a heavily stalled session cannot be rescued by great picture
	if s := Session(1.5, 5, 5); s > 2.5 {
		t.Errorf("stalled session scored %v", s)
	}
	// a perfect session stays excellent
	if s := Session(5, 5, 5); s < 4.5 {
		t.Errorf("perfect session scored %v", s)
	}
	// low quality drags an otherwise smooth session
	if Session(5, 2, 5) >= Session(5, 4.5, 5) {
		t.Error("quality should matter for smooth sessions")
	}
}

func TestFromTraceHealthyVsStarved(t *testing.T) {
	r := stats.NewRand(1)
	cat := video.NewCatalog(1, r)
	v := cat.Videos[0]
	v.Duration = 120

	fast := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Cond: netsim.Conditions{BandwidthBps: 20e6, RTT: 0.05}},
	}}
	good := player.Run(v, fast, player.DefaultConfig(player.Adaptive), stats.NewRand(2))
	slow := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Cond: netsim.Conditions{BandwidthBps: 150e3, RTT: 0.2, LossProb: 0.01}},
	}}
	cfg := player.DefaultConfig(player.Adaptive)
	cfg.AbandonStallSec = 1e6
	bad := player.Run(v, slow, cfg, stats.NewRand(3))

	gm, bm := FromTrace(good), FromTrace(bad)
	if gm <= bm {
		t.Errorf("healthy session MOS %v should beat starved %v", gm, bm)
	}
	if gm < 3.5 {
		t.Errorf("healthy session only scored %v", gm)
	}
	if bm > 3 {
		t.Errorf("starved session scored %v", bm)
	}
}

func TestFromReportOrdering(t *testing.T) {
	healthy := core.Report{Stall: features.NoStall, Representation: features.HD}
	mild := core.Report{Stall: features.MildStall, Representation: features.SD}
	severe := core.Report{Stall: features.SevereStall, Representation: features.LD, SwitchVariance: true}
	h, m, s := FromReport(healthy), FromReport(mild), FromReport(severe)
	if !(h > m && m > s) {
		t.Errorf("ordering violated: %v %v %v", h, m, s)
	}
	if h < 4 || s > 2.5 {
		t.Errorf("extremes implausible: healthy %v severe %v", h, s)
	}
}

// TestReportScoresPinned holds FromReport to the scores the per-level
// switch computed before the table replaced it, bit for bit, for every
// (stall, representation, switch) combination and for labels outside
// their ranges, which score as severe stall and LD.
func TestReportScoresPinned(t *testing.T) {
	const (
		severe = 0x3ffa20dc320a3cfc // any severe stall: 1.63302249476311
		mild   = 0x4008b528d48187ec // 3.0884567834882457
	)
	want := map[features.StallLabel]map[features.RepLabel][2]uint64{
		features.NoStall: {
			features.LD: {0x401246205ab73dfc, 0x400df2a71bd4e25d},
			features.SD: {0x401320685a863bde, 0x401096b12dbf723a},
			features.HD: {0x401397d920b5ec42, 0x401224d3c25e68dc},
		},
		features.MildStall: {
			features.LD: {mild, 0x40089987089fa82c},
			features.SD: {mild, mild},
			features.HD: {mild, mild},
		},
		features.SevereStall: {
			features.LD: {severe, severe},
			features.SD: {severe, severe},
			features.HD: {severe, severe},
		},
	}
	check := func(r core.Report, want uint64) {
		t.Helper()
		if got := math.Float64bits(float64(FromReport(r))); got != want {
			t.Errorf("FromReport(%+v) bits %#016x, want %#016x", r, got, want)
		}
	}
	for st, byRep := range want {
		for rep, bits := range byRep {
			for sw, b := range bits {
				check(core.Report{Stall: st, Representation: rep, SwitchVariance: sw == 1}, b)
			}
		}
	}
	for _, sw := range []bool{false, true} {
		for _, st := range []features.StallLabel{-1, 3, 7} {
			check(core.Report{Stall: st, Representation: features.HD, SwitchVariance: sw}, severe)
		}
		i := 0
		if sw {
			i = 1
		}
		for _, rep := range []features.RepLabel{-1, 3, 5} {
			check(core.Report{Stall: features.NoStall, Representation: rep, SwitchVariance: sw}, want[features.NoStall][features.LD][i])
			check(core.Report{Stall: features.MildStall, Representation: rep, SwitchVariance: sw}, want[features.MildStall][features.LD][i])
		}
	}
}

// randomReport draws any label, out-of-range ones included.
func randomReport(rng *stats.Rand) core.Report {
	return core.Report{
		Stall:          features.StallLabel(rng.Intn(5) - 1),
		Representation: features.RepLabel(rng.Intn(5) - 1),
		SwitchVariance: rng.Bernoulli(0.3),
	}
}

// A tally's percentiles are stats.Summary.Percentile's over the scores
// it counted, bit for bit; its mean and impairment counts are the
// sample's; and two tallies add up to the tally of both samples.
func TestTallyMatchesSample(t *testing.T) {
	rng := stats.NewRand(5)
	for _, n := range []int{1, 2, 3, 7, 32, 100, 1001} {
		var a, b Tally
		var xs []float64
		var stalled, ld, sw int64
		for i := 0; i < n; i++ {
			r := randomReport(rng)
			half := &a
			if i%3 == 0 {
				half = &b
			}
			if s := half.Observe(r); s != FromReport(r) {
				t.Fatalf("Observe scored %v, FromReport %v", s, FromReport(r))
			}
			xs = append(xs, float64(FromReport(r)))
			if r.Stall != features.NoStall {
				stalled++
			}
			if r.Representation != features.SD && r.Representation != features.HD {
				ld++
			}
			if r.SwitchVariance {
				sw++
			}
		}
		a.Add(&b)
		if a.Count() != int64(n) {
			t.Fatalf("n=%d: count %d", n, a.Count())
		}
		sum := stats.Summarize(xs)
		for _, p := range []float64{-5, 0, 1, 10, 25, 50, 73.5, 90, 99, 100, 120} {
			if got, want := a.Percentile(p), sum.Percentile(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d p%v: tally %v, sample %v", n, p, got, want)
			}
		}
		if math.Abs(a.Mean()-sum.Mean) > 1e-12 {
			t.Errorf("n=%d: mean %v, sample %v", n, a.Mean(), sum.Mean)
		}
		if gs, gl, gw := a.Impaired(); gs != stalled || gl != ld || gw != sw {
			t.Errorf("n=%d: impaired %d/%d/%d, sample %d/%d/%d", n, gs, gl, gw, stalled, ld, sw)
		}
	}
	var empty Tally
	if empty.Percentile(50) != 0 || empty.Mean() != 0 || empty.Count() != 0 {
		t.Error("empty tally should read 0")
	}
}

// Property: every report maps into the valid scale.
func TestFromReportBoundsProperty(t *testing.T) {
	f := func(st, rep uint8, sw bool) bool {
		r := core.Report{
			Stall:          features.StallLabel(st % 3),
			Representation: features.RepLabel(rep % 3),
			SwitchVariance: sw,
		}
		s := FromReport(r)
		return s >= 1 && s <= 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
