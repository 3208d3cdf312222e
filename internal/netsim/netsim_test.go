package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"vqoe/internal/stats"
)

func TestStateString(t *testing.T) {
	if Good.String() != "good" || Outage.String() != "outage" {
		t.Error("state names wrong")
	}
	if State(99).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestBDPBytes(t *testing.T) {
	c := Conditions{BandwidthBps: 8e6, RTT: 0.1}
	if got := c.BDPBytes(); got != 1e5 {
		t.Errorf("BDP = %v, want 1e5", got)
	}
}

func TestPathDeterministicForSeed(t *testing.T) {
	p1 := NewPath(CommuterProfile(), stats.NewRand(5))
	p2 := NewPath(CommuterProfile(), stats.NewRand(5))
	for _, tt := range []float64{0, 10, 100, 55, 300} {
		if p1.At(tt) != p2.At(tt) {
			t.Fatalf("paths diverge at t=%v", tt)
		}
	}
}

func TestPathPiecewiseConstant(t *testing.T) {
	p := NewPath(StaticProfile(), stats.NewRand(1))
	c := p.At(0)
	b := p.segs[0].until
	// everywhere inside the first segment conditions are identical
	for _, tt := range []float64{0, b / 3, b / 2, b * 0.99} {
		if p.At(tt) != c {
			t.Fatalf("conditions changed inside a segment at t=%v", tt)
		}
	}
	if p.At(b+0.01) == c && p.At(b+0.01).BandwidthBps == c.BandwidthBps {
		// a new draw could coincide but bandwidth equality is measure-zero
		t.Log("warning: adjacent segments drew identical conditions")
	}
}

func TestPathOutOfOrderQueries(t *testing.T) {
	p := NewPath(CommuterProfile(), stats.NewRand(2))
	late := p.At(500)
	early := p.At(3)
	if p.At(500) != late || p.At(3) != early {
		t.Error("out-of-order queries must be stable")
	}
	if p.At(-5) != p.At(0) {
		t.Error("negative times clamp to 0")
	}
}

func TestPathConditionsSane(t *testing.T) {
	for _, prof := range []Profile{StaticProfile(), CommuterProfile(), CongestedProfile()} {
		p := NewPath(prof, stats.NewRand(7))
		for tt := 0.0; tt < 2000; tt += 13 {
			c := p.At(tt)
			if c.BandwidthBps < 1e3 || math.IsNaN(c.BandwidthBps) {
				t.Fatalf("%s: bandwidth %v at t=%v", prof.Name, c.BandwidthBps, tt)
			}
			if c.RTT < 0.01 || c.RTT > 3 {
				t.Fatalf("%s: rtt %v at t=%v", prof.Name, c.RTT, tt)
			}
			if c.LossProb < 0 || c.LossProb > 0.5 {
				t.Fatalf("%s: loss %v at t=%v", prof.Name, c.LossProb, tt)
			}
		}
	}
}

func TestStaticBetterThanCommuter(t *testing.T) {
	// long-run average bandwidth of the static profile should clearly
	// exceed the commuter's
	avg := func(prof Profile, seed int64) float64 {
		p := NewPath(prof, stats.NewRand(seed))
		var sum float64
		n := 0
		for tt := 0.0; tt < 20000; tt += 7 {
			sum += p.At(tt).BandwidthBps
			n++
		}
		return sum / float64(n)
	}
	s := avg(StaticProfile(), 3)
	c := avg(CommuterProfile(), 3)
	if s < c*1.3 {
		t.Errorf("static avg bw %v should dominate commuter %v", s, c)
	}
}

func TestStateAtCoversTimeline(t *testing.T) {
	p := NewPath(CommuterProfile(), stats.NewRand(4))
	seen := map[State]bool{}
	p.At(5000) // extend the timeline
	for _, seg := range p.segs {
		seen[seg.state] = true
	}
	if len(seen) < 3 {
		t.Errorf("commuter path visited only %d states in 5000s", len(seen))
	}
}

func TestScriptedNetwork(t *testing.T) {
	s := &Scripted{Steps: []ScriptStep{
		{Start: 0, Cond: Conditions{BandwidthBps: 1e6, RTT: 0.1}},
		{Start: 10, Cond: Conditions{BandwidthBps: 5e6, RTT: 0.05}},
	}}
	if s.At(5).BandwidthBps != 1e6 {
		t.Error("first step should apply before t=10")
	}
	if s.At(10).BandwidthBps != 5e6 || s.At(100).BandwidthBps != 5e6 {
		t.Error("second step should apply from t=10 on")
	}
	empty := &Scripted{}
	if empty.At(0).BandwidthBps <= 0 {
		t.Error("empty script should fall back to a sane default")
	}
}

func TestDownloadBasics(t *testing.T) {
	net := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: 4e6, RTT: 0.08, LossProb: 0}}}}
	conn := NewConn(net, stats.NewRand(1))
	st := conn.Download(0, 500_000)
	if st.Bytes != 500_000 {
		t.Errorf("bytes = %d", st.Bytes)
	}
	if st.Duration <= 0 {
		t.Fatal("duration must be positive")
	}
	// 500KB over 4Mbps is ≥ 1 second of serialization; slow start adds more
	if st.Duration < 0.9 || st.Duration > 10 {
		t.Errorf("duration %v implausible for 500KB over 4Mbps", st.Duration)
	}
	if st.LossPct != 0 || st.RetransPct != 0 {
		t.Errorf("lossless path produced loss %v retrans %v", st.LossPct, st.RetransPct)
	}
	if st.RTTMin > st.RTTAvg || st.RTTAvg > st.RTTMax {
		t.Errorf("rtt ordering violated: %v %v %v", st.RTTMin, st.RTTAvg, st.RTTMax)
	}
	if st.BIFAvg > st.BIFMax {
		t.Errorf("BIF avg %v > max %v", st.BIFAvg, st.BIFMax)
	}
	if st.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestDownloadZeroBytes(t *testing.T) {
	net := &Scripted{}
	conn := NewConn(net, stats.NewRand(1))
	st := conn.Download(5, 0)
	if st.Duration != 0 || st.Bytes != 0 {
		t.Errorf("zero download: %+v", st)
	}
	if st.Throughput() != 0 {
		t.Error("zero download throughput must be 0")
	}
}

func TestDownloadLossyPathRetransmits(t *testing.T) {
	lossy := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: 2e6, RTT: 0.1, LossProb: 0.05}}}}
	clean := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: 2e6, RTT: 0.1, LossProb: 0}}}}
	lc := NewConn(lossy, stats.NewRand(2))
	cc := NewConn(clean, stats.NewRand(2))
	ls := lc.Download(0, 1_000_000)
	cs := cc.Download(0, 1_000_000)
	if ls.RetransPct <= 0 {
		t.Error("lossy path should retransmit")
	}
	if ls.Duration <= cs.Duration {
		t.Errorf("lossy download (%vs) should be slower than clean (%vs)",
			ls.Duration, cs.Duration)
	}
}

func TestDownloadFasterOnFatterPath(t *testing.T) {
	slow := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: 0.5e6, RTT: 0.1}}}}
	fast := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: 8e6, RTT: 0.1}}}}
	ss := NewConn(slow, stats.NewRand(3)).Download(0, 800_000)
	fs := NewConn(fast, stats.NewRand(3)).Download(0, 800_000)
	if fs.Duration >= ss.Duration {
		t.Errorf("8Mbps (%vs) should beat 0.5Mbps (%vs)", fs.Duration, ss.Duration)
	}
	if fs.BDP <= ss.BDP {
		t.Errorf("fat path BDP %v should exceed thin path %v", fs.BDP, ss.BDP)
	}
}

func TestConnSlowStartCarryover(t *testing.T) {
	net := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: 6e6, RTT: 0.08}}}}
	conn := NewConn(net, stats.NewRand(4))
	first := conn.Download(0, 400_000)
	second := conn.Download(first.Start+first.Duration+0.1, 400_000)
	if second.Duration >= first.Duration {
		t.Errorf("warm connection (%vs) should beat cold start (%vs)",
			second.Duration, first.Duration)
	}
}

func TestConnIdleReset(t *testing.T) {
	net := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: 6e6, RTT: 0.08}}}}
	conn := NewConn(net, stats.NewRand(5))
	first := conn.Download(0, 400_000)
	_ = first
	warm := conn.Download(first.Duration+0.1, 400_000)
	// long idle: window collapses, transfer behaves like a cold start
	cold := conn.Download(1000, 400_000)
	if cold.Duration <= warm.Duration {
		t.Errorf("idle-reset download (%vs) should be slower than warm (%vs)",
			cold.Duration, warm.Duration)
	}
}

// Property: any download over any sane scripted path terminates with
// positive duration and internally consistent statistics.
func TestDownloadConsistencyProperty(t *testing.T) {
	f := func(bwRaw, rttRaw, lossRaw float64, sizeRaw uint32, seed int64) bool {
		bw := 1e4 + math.Abs(math.Mod(bwRaw, 2e7))
		rtt := 0.01 + math.Abs(math.Mod(rttRaw, 1.0))
		loss := math.Abs(math.Mod(lossRaw, 0.08))
		size := int(sizeRaw%3_000_000) + 1
		net := &Scripted{Steps: []ScriptStep{{Cond: Conditions{BandwidthBps: bw, RTT: rtt, LossProb: loss}}}}
		st := NewConn(net, stats.NewRand(seed)).Download(0, size)
		return st.Duration > 0 &&
			st.RTTMin <= st.RTTAvg && st.RTTAvg <= st.RTTMax &&
			st.BIFAvg <= st.BIFMax &&
			st.LossPct >= 0 && st.LossPct <= 100 &&
			st.RetransPct >= 0 &&
			!math.IsNaN(st.BDP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
