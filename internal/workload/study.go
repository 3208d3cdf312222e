package workload

import (
	"vqoe/internal/features"
	"vqoe/internal/netsim"
	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
	"vqoe/internal/weblog"
)

// Study is the encrypted-traffic evaluation dataset of §5: the
// sessions of a single instrumented subscriber over a measurement
// period, both as a labelled corpus (via the device ground truth) and
// as one interleaved weblog stream for session reconstruction.
type Study struct {
	Corpus *Corpus
	// Stream is the subscriber's full encrypted weblog, time-ordered.
	Stream []weblog.Entry
	// StreamLabels holds the true session ID of every stream entry,
	// for evaluating the sessionizer.
	StreamLabels []string
}

// StudyConfig parameterizes the encrypted study.
type StudyConfig struct {
	// Sessions is the number of video sessions (the paper collected
	// 722 over 25 days).
	Sessions int
	// CommuterFraction is the share of sessions launched while moving;
	// the user was instructed to favour that (§5.2).
	CommuterFraction float64
	Seed             int64
}

// studyTopVideos is the popularity pool: the app replayed the 100 most
// popular videos (§5.1). studyMeanGapSec is the mean exponential gap
// (plus 20 s) between consecutive sessions.
const (
	studyTopVideos  = 100
	studyMeanGapSec = 240
)

// DefaultStudyConfig mirrors §5: 722 adaptive sessions, top-100
// content, commuting-heavy usage.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		Sessions:         722,
		CommuterFraction: 0.55,
		Seed:             99,
	}
}

// GenerateStudy builds the encrypted evaluation dataset. All sessions
// use the adaptive player (the stock app with TLS on), are rendered as
// encrypted weblogs, and are labelled from the trace — the device-side
// ground truth.
func GenerateStudy(cfg StudyConfig) *Study {
	if cfg.Sessions <= 0 {
		return &Study{Corpus: &Corpus{}}
	}
	r := stats.NewRand(cfg.Seed)
	catalog := video.NewCatalog(studyTopVideos*3, r)
	top := catalog.Top(studyTopVideos)

	st := &Study{Corpus: &Corpus{}}
	offset := 0.0
	for i := 0; i < cfg.Sessions; i++ {
		v := top[r.Intn(len(top))]

		profIdx := 0 // static
		switch {
		case r.Float64() < cfg.CommuterFraction:
			profIdx = 1 // commuter
		case r.Float64() < 0.15:
			profIdx = 2 // congested cell at home
		}
		profName, prof := profileByIndex(profIdx)
		net := netsim.NewPath(prof, r.Fork())

		pcfg := player.DefaultConfig(player.Adaptive)
		pcfg.MaxQuality = video.Ladder[r.WeightedChoice([]float64{0.06, 0.22, 0.30, 0.32, 0.07, 0.03})]
		if r.Float64() < 0.25 {
			pcfg.WatchFraction = 0.3 + 0.7*r.Float64()
		}
		tr := player.Run(v, net, pcfg, r.Fork())

		entries := weblog.FromTrace(tr, weblog.Options{
			Subscriber: "study-device",
			Encrypted:  true,
			TimeOffset: offset,
		})
		s := &Session{
			Trace:   tr,
			Entries: entries,
			Obs:     features.FromEntries(entries),
			Mode:    player.Adaptive,
			Profile: profName,
		}
		labelFromTrace(s)
		st.Corpus.Sessions = append(st.Corpus.Sessions, s)

		st.Stream = append(st.Stream, entries...)
		for range entries {
			st.StreamLabels = append(st.StreamLabels, tr.SessionID)
		}
		offset += tr.Duration + r.Exp(studyMeanGapSec) + 20
	}
	return st
}

// FigureSession reproduces the controlled single-session scenarios
// behind the paper's illustrative figures.
type FigureSession struct {
	Trace *player.SessionTrace
	Obs   features.SessionObs
}

// Figure1Session produces a session that stalls twice: ample bandwidth
// with two scripted outages, as in Figure 1's chunk-size timeline.
func Figure1Session(seed int64) FigureSession {
	r := stats.NewRand(seed)
	cat := video.NewCatalog(1, r)
	v := cat.Videos[0]
	v.Duration = 180
	net := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Start: 0, Cond: netsim.Conditions{BandwidthBps: 3e6, RTT: 0.07, LossProb: 0.001}},
		{Start: 6, Cond: netsim.Conditions{BandwidthBps: 0.06e6, RTT: 0.4, LossProb: 0.03}},
		{Start: 40, Cond: netsim.Conditions{BandwidthBps: 3e6, RTT: 0.07, LossProb: 0.001}},
		{Start: 75, Cond: netsim.Conditions{BandwidthBps: 0.05e6, RTT: 0.45, LossProb: 0.04}},
		{Start: 115, Cond: netsim.Conditions{BandwidthBps: 3e6, RTT: 0.07, LossProb: 0.001}},
	}}
	cfg := player.DefaultConfig(player.Adaptive)
	cfg.MaxQuality = video.Q480
	cfg.AbandonStallSec = 1e6 // controlled experiment: watch it all
	tr := player.Run(v, net, cfg, r.Fork())
	entries := weblog.FromTrace(tr, weblog.Options{Encrypted: true})
	return FigureSession{Trace: tr, Obs: features.FromEntries(entries)}
}

// Figure3Session produces a session with one clean upswitch (144p →
// higher) by stepping the path bandwidth up mid-session, as in
// Figure 3's Δt/Δsize illustration.
func Figure3Session(seed int64) FigureSession {
	r := stats.NewRand(seed)
	cat := video.NewCatalog(1, r)
	v := cat.Videos[0]
	v.Duration = 120
	net := &netsim.Scripted{Steps: []netsim.ScriptStep{
		{Start: 0, Cond: netsim.Conditions{BandwidthBps: 0.5e6, RTT: 0.12, LossProb: 0.002}},
		{Start: 20, Cond: netsim.Conditions{BandwidthBps: 6e6, RTT: 0.06, LossProb: 0.0005}},
	}}
	cfg := player.DefaultConfig(player.Adaptive)
	cfg.MaxQuality = video.Q480
	tr := player.Run(v, net, cfg, r.Fork())
	entries := weblog.FromTrace(tr, weblog.Options{Encrypted: true})
	return FigureSession{Trace: tr, Obs: features.FromEntries(entries)}
}
