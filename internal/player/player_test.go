package player

import (
	"math"
	"testing"

	"vqoe/internal/netsim"
	"vqoe/internal/stats"
	"vqoe/internal/video"
)

func testVideo(durationSec float64, seed int64) *video.Video {
	r := stats.NewRand(seed)
	cat := video.NewCatalog(1, r)
	v := cat.Videos[0]
	v.Duration = durationSec
	return v
}

func constantNet(bps, rtt, loss float64) netsim.Network {
	return &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Cond: netsim.Conditions{BandwidthBps: bps, RTT: rtt, LossProb: loss}},
	}}
}

// fastNetwork has ample fixed capacity, for problem-free sessions.
var fastNetwork = constantNet(20e6, 0.05, 0)

func TestModeString(t *testing.T) {
	if Progressive.String() != "progressive" || Adaptive.String() != "adaptive" {
		t.Error("mode names wrong")
	}
}

func TestAdaptiveHealthySession(t *testing.T) {
	v := testVideo(120, 1)
	tr := Run(v, fastNetwork, DefaultConfig(Adaptive), stats.NewRand(2))

	if len(tr.SessionID) != 16 {
		t.Errorf("session ID %q not 16 chars", tr.SessionID)
	}
	if tr.Abandoned {
		t.Error("healthy session should not be abandoned")
	}
	if len(tr.Stalls) != 0 {
		t.Errorf("healthy session stalled %d times", len(tr.Stalls))
	}
	if math.Abs(tr.PlayedSeconds-v.Duration) > 1 {
		t.Errorf("played %v of %v seconds", tr.PlayedSeconds, v.Duration)
	}
	if tr.Duration < v.Duration {
		t.Errorf("wall duration %v below content duration %v", tr.Duration, v.Duration)
	}
	if tr.StartupDelay <= 0 || tr.StartupDelay > 15 {
		t.Errorf("startup delay %v implausible", tr.StartupDelay)
	}
	if len(tr.Chunks) == 0 {
		t.Fatal("no chunks recorded")
	}
	if tr.RebufferingRatio() != 0 {
		t.Errorf("RR = %v for stall-free session", tr.RebufferingRatio())
	}
}

func TestAdaptiveRampsUpQuality(t *testing.T) {
	v := testVideo(180, 3)
	cfg := DefaultConfig(Adaptive)
	cfg.MaxQuality = video.Q1080
	tr := Run(v, fastNetwork, cfg, stats.NewRand(4))

	// fast start at the middle rung, then upswitches on a fat pipe
	first := tr.Chunks[0]
	if first.Audio || first.Quality != video.Q360 {
		t.Errorf("first chunk should be 360p video, got %+v", first)
	}
	if tr.AverageQuality() <= float64(video.Q360) {
		t.Error("quality never ramped up on a 20 Mbps path")
	}
	if len(tr.Switches) == 0 {
		t.Error("no switches recorded despite ramp-up")
	}
	for _, sw := range tr.Switches {
		if sw.From == sw.To {
			t.Errorf("degenerate switch %+v", sw)
		}
	}
}

func TestAdaptiveStallsOnStarvedPath(t *testing.T) {
	v := testVideo(120, 5)
	// 150 kbit/s cannot sustain even 144p+audio (~240 kbit/s)
	tr := Run(v, constantNet(150e3, 0.15, 0.01), DefaultConfig(Adaptive), stats.NewRand(6))
	if len(tr.Stalls) == 0 && !tr.Abandoned {
		t.Error("starved session produced no stalls and was not abandoned")
	}
	if tr.RebufferingRatio() <= 0 {
		t.Errorf("RR = %v on a starved path", tr.RebufferingRatio())
	}
}

func TestAdaptiveDownswitchOnBandwidthDrop(t *testing.T) {
	v := testVideo(240, 7)
	net := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Start: 0, Cond: netsim.Conditions{BandwidthBps: 8e6, RTT: 0.06}},
		{Start: 60, Cond: netsim.Conditions{BandwidthBps: 0.35e6, RTT: 0.2, LossProb: 0.01}},
	}}
	cfg := DefaultConfig(Adaptive)
	cfg.MaxQuality = video.Q720
	tr := Run(v, net, cfg, stats.NewRand(8))

	down := false
	for _, sw := range tr.Switches {
		if sw.To < sw.From {
			down = true
		}
	}
	if !down {
		t.Error("bandwidth collapse did not trigger a downswitch")
	}
	if tr.SwitchAmplitude() <= 0 {
		t.Error("switch amplitude should be positive")
	}
	if tr.SwitchFrequency() != len(tr.Switches) {
		t.Error("frequency accessor inconsistent")
	}
}

func TestHealthySessionHasNoTinyChunks(t *testing.T) {
	// problem-free sessions never issue small range requests — the
	// property that makes "chunk size min" a stall signature (§4.1)
	v := testVideo(120, 9)
	tr := Run(v, fastNetwork, DefaultConfig(Adaptive), stats.NewRand(10))
	if len(tr.Stalls) != 0 {
		t.Fatal("expected a stall-free session")
	}
	// upswitch ramps use quarter segments at worst; only post-stall
	// refills go below this
	for _, c := range tr.Chunks {
		if c.Size < 20_000 {
			t.Fatalf("healthy session issued a %d-byte chunk", c.Size)
		}
	}
}

func TestPostStallRefillUsesSmallChunks(t *testing.T) {
	v := testVideo(180, 9)
	// good network with a mid-session outage long enough to stall
	net := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Start: 0, Cond: netsim.Conditions{BandwidthBps: 4e6, RTT: 0.07}},
		{Start: 5, Cond: netsim.Conditions{BandwidthBps: 0.05e6, RTT: 0.4, LossProb: 0.02}},
		{Start: 50, Cond: netsim.Conditions{BandwidthBps: 4e6, RTT: 0.07}},
	}}
	cfg := DefaultConfig(Adaptive)
	cfg.AbandonStallSec = 1e6
	tr := Run(v, net, cfg, stats.NewRand(10))
	if len(tr.Stalls) == 0 {
		t.Fatal("scenario should stall")
	}
	var minVideo, maxVideo int
	for _, c := range tr.Chunks {
		if c.Audio {
			continue
		}
		if minVideo == 0 || c.Size < minVideo {
			minVideo = c.Size
		}
		if c.Size > maxVideo {
			maxVideo = c.Size
		}
	}
	// the refill ramp splits the lowest-quality segment into eighths
	if minVideo*8 > maxVideo {
		t.Errorf("refill chunks not small: min %d, max %d", minVideo, maxVideo)
	}
}

func TestAdaptiveAudioInterleaved(t *testing.T) {
	v := testVideo(60, 11)
	tr := Run(v, fastNetwork, DefaultConfig(Adaptive), stats.NewRand(12))
	var audio, vid int
	for _, c := range tr.Chunks {
		if c.Audio {
			audio++
			if c.Itag != video.AudioItag {
				t.Errorf("audio chunk itag %d", c.Itag)
			}
		} else {
			vid++
		}
	}
	if audio == 0 {
		t.Error("no audio chunks")
	}
	if vid < audio {
		t.Errorf("video chunks (%d) should outnumber audio (%d) due to ramp splits", vid, audio)
	}
}

func TestProgressiveHealthySession(t *testing.T) {
	v := testVideo(90, 13)
	cfg := DefaultConfig(Progressive)
	cfg.MaxQuality = video.Q360
	tr := Run(v, fastNetwork, cfg, stats.NewRand(14))

	if tr.Mode != Progressive {
		t.Error("mode not recorded")
	}
	if len(tr.Stalls) != 0 || tr.Abandoned {
		t.Errorf("healthy progressive session: stalls=%d abandoned=%v",
			len(tr.Stalls), tr.Abandoned)
	}
	if len(tr.Switches) != 0 {
		t.Error("progressive sessions cannot switch representation")
	}
	for _, c := range tr.Chunks {
		if c.Audio {
			t.Error("progressive sessions have no separate audio chunks")
		}
		if c.Quality != video.Q360 {
			t.Errorf("quality %v, want 360p", c.Quality)
		}
	}
	if math.Abs(tr.PlayedSeconds-v.Duration) > 1 {
		t.Errorf("played %v of %v", tr.PlayedSeconds, v.Duration)
	}
}

func TestProgressiveStallsOnSlowPath(t *testing.T) {
	v := testVideo(120, 15)
	cfg := DefaultConfig(Progressive)
	cfg.MaxQuality = video.Q360 // needs ~690 kbit/s
	tr := Run(v, constantNet(400e3, 0.15, 0.005), cfg, stats.NewRand(16))
	if len(tr.Stalls) == 0 && !tr.Abandoned {
		t.Error("undersized path should stall a 360p progressive session")
	}
}

func TestWatchFractionEndsEarly(t *testing.T) {
	v := testVideo(300, 17)
	cfg := DefaultConfig(Adaptive)
	cfg.WatchFraction = 0.3
	tr := Run(v, fastNetwork, cfg, stats.NewRand(18))
	if tr.PlayedSeconds > 0.3*v.Duration+video.SegmentSeconds {
		t.Errorf("played %v, want ≈%v", tr.PlayedSeconds, 0.3*v.Duration)
	}
}

func TestAbandonmentOnEndlessStall(t *testing.T) {
	v := testVideo(120, 19)
	cfg := DefaultConfig(Adaptive)
	cfg.AbandonStallSec = 10
	// near-dead path: first chunk takes forever
	tr := Run(v, constantNet(5e3, 0.5, 0.05), cfg, stats.NewRand(20))
	if !tr.Abandoned {
		t.Error("user should abandon a session that never plays")
	}
	if tr.Duration <= 0 {
		t.Error("abandoned session needs a positive duration")
	}
}

func TestSignalsEmitted(t *testing.T) {
	v := testVideo(120, 21)
	tr := Run(v, fastNetwork, DefaultConfig(Adaptive), stats.NewRand(22))
	var page, img, report, final int
	for _, s := range tr.Signals {
		switch s.Kind {
		case SignalPageLoad:
			page++
		case SignalImageLoad:
			img++
		case SignalStatsReport:
			report++
			if s.Final {
				final++
			}
		}
	}
	if page != 1 || img < 2 {
		t.Errorf("start signals: page=%d img=%d", page, img)
	}
	if report < 1 || final != 1 {
		t.Errorf("stats reports: %d (final %d)", report, final)
	}
}

func TestRebufferingRatioBounds(t *testing.T) {
	tr := &SessionTrace{Duration: 10, Stalls: []Stall{{At: 1, Duration: 4}, {At: 6, Duration: 9}}}
	if rr := tr.RebufferingRatio(); rr != 1 {
		t.Errorf("RR should clamp to 1, got %v", rr)
	}
	empty := &SessionTrace{}
	if empty.RebufferingRatio() != 0 {
		t.Error("zero-duration RR should be 0")
	}
}

func TestAverageQualityWeighted(t *testing.T) {
	tr := &SessionTrace{Chunks: []Chunk{
		{Quality: video.Q144, Seconds: 10},
		{Quality: video.Q480, Seconds: 30},
		{Audio: true, Itag: video.AudioItag, Seconds: 40}, // ignored
	}}
	want := (144.0*10 + 480*30) / 40
	if got := tr.AverageQuality(); math.Abs(got-want) > 1e-9 {
		t.Errorf("avg quality = %v, want %v", got, want)
	}
	if (&SessionTrace{}).AverageQuality() != 0 {
		t.Error("no chunks → 0")
	}
}

func TestSwitchAmplitude(t *testing.T) {
	tr := &SessionTrace{Switches: []Switch{
		{From: video.Q144, To: video.Q480},
		{From: video.Q480, To: video.Q360},
	}}
	want := (336.0 + 120.0) / 2
	if got := tr.SwitchAmplitude(); math.Abs(got-want) > 1e-9 {
		t.Errorf("amplitude = %v, want %v", got, want)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	v := testVideo(120, 23)
	t1 := Run(v, constantNet(2e6, 0.1, 0.005), DefaultConfig(Adaptive), stats.NewRand(42))
	t2 := Run(v, constantNet(2e6, 0.1, 0.005), DefaultConfig(Adaptive), stats.NewRand(42))
	if len(t1.Chunks) != len(t2.Chunks) || t1.Duration != t2.Duration ||
		len(t1.Stalls) != len(t2.Stalls) {
		t.Error("same seed should reproduce the identical session")
	}
}

func TestStallsAreWellFormed(t *testing.T) {
	v := testVideo(180, 25)
	net := netsim.NewPath(netsim.CongestedProfile(), stats.NewRand(26))
	for seed := int64(0); seed < 10; seed++ {
		tr := Run(v, net, DefaultConfig(Adaptive), stats.NewRand(seed))
		for _, st := range tr.Stalls {
			if st.Duration < 0 || st.At < 0 {
				t.Fatalf("malformed stall %+v", st)
			}
			if st.At+st.Duration > tr.Duration+1e-6 {
				t.Fatalf("stall %+v extends past session end %v", st, tr.Duration)
			}
		}
		if tr.PlayedSeconds > v.Duration+1e-6 {
			t.Fatalf("played %v exceeds content %v", tr.PlayedSeconds, v.Duration)
		}
	}
}

func TestChunkTimesMonotone(t *testing.T) {
	v := testVideo(120, 27)
	tr := Run(v, constantNet(1.5e6, 0.1, 0.01), DefaultConfig(Adaptive), stats.NewRand(28))
	prev := -1.0
	for _, c := range tr.Chunks {
		if c.Stats.Start < prev-1e-9 {
			t.Fatalf("chunk %d requested at %v before previous at %v",
				c.Seq, c.Stats.Start, prev)
		}
		prev = c.Stats.Start
		if c.ArrivedAt() < c.Stats.Start {
			t.Fatal("arrival before request")
		}
	}
}

func TestInitialDelayDecomposition(t *testing.T) {
	v := testVideo(120, 29)
	for _, mode := range []Mode{Adaptive, Progressive} {
		tr := Run(v, fastNetwork, DefaultConfig(mode), stats.NewRand(30))
		if tr.NetworkDelay <= 0 {
			t.Errorf("%v: network delay %v", mode, tr.NetworkDelay)
		}
		if tr.NetworkDelay >= tr.StartupDelay {
			t.Errorf("%v: network delay %v should be below startup delay %v",
				mode, tr.NetworkDelay, tr.StartupDelay)
		}
		// buffering component is the remainder and must be positive
		if buf := tr.StartupDelay - tr.NetworkDelay; buf <= 0 {
			t.Errorf("%v: buffering delay %v", mode, buf)
		}
	}
}
