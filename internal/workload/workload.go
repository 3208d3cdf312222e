// Package workload generates the study's two datasets: the cleartext
// training corpus collected by the operator proxy (§3) and the
// encrypted evaluation set collected with an instrumented device (§5).
//
// Ground truth flows exactly as in the paper: cleartext labels are
// reverse-engineered from request URIs by the weblog parser, while the
// encrypted corpus is labelled from the player traces themselves — the
// stand-in for the instrumented Android client whose hooked HTTP layer
// and logcat reader supplied per-segment truth.
package workload

import (
	"fmt"
	"runtime"
	"sync"

	"vqoe/internal/features"
	"vqoe/internal/netsim"
	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
	"vqoe/internal/weblog"
)

// Session is one corpus entry: observations, the labels derived from
// ground truth, and provenance for drill-down.
type Session struct {
	Trace   *player.SessionTrace
	Entries []weblog.Entry
	Obs     features.SessionObs

	Mode    player.Mode
	Profile string

	// Ground truth and derived labels.
	RR         float64
	Stall      features.StallLabel
	AvgQuality float64
	Rep        features.RepLabel
	SwitchFreq int
	SwitchAmp  float64
	Var        features.VarLabel
}

// Corpus is a set of generated sessions.
type Corpus struct {
	Sessions []*Session
}

// Len returns the corpus size.
func (c *Corpus) Len() int { return len(c.Sessions) }

// Adaptive returns the HAS subset, the input to the representation and
// switch models (progressive sessions have one fixed quality).
func (c *Corpus) Adaptive() *Corpus {
	out := &Corpus{}
	for _, s := range c.Sessions {
		if s.Mode == player.Adaptive {
			out.Sessions = append(out.Sessions, s)
		}
	}
	return out
}

// StallDistribution returns the per-class session counts.
func (c *Corpus) StallDistribution() [3]int {
	var d [3]int
	for _, s := range c.Sessions {
		d[s.Stall]++
	}
	return d
}

// Config parameterizes corpus generation.
type Config struct {
	// Sessions is the corpus size.
	Sessions int
	// AdaptiveFraction is the share of HAS sessions (the paper's
	// cleartext corpus has 3%; corpora for the representation models
	// use 1.0).
	AdaptiveFraction float64
	// Encrypted renders the TLS view (no URIs).
	Encrypted bool
	// Service selects the content packaging (§7 generalization); the
	// zero value means the reference YouTube-like service.
	Service video.ServiceProfile
	// Seed fixes the corpus.
	Seed int64
}

// DefaultConfig mirrors the cleartext corpus: overwhelmingly
// progressive legacy players, mostly static users, LD/SD-heavy caps.
//
// The adaptive share is 12% rather than the paper's 3%: the paper's 3%
// of ~390k sessions leaves ~12k adaptive sessions for the models to
// learn HAS traffic patterns from, and a reproduction running two
// orders of magnitude smaller must keep the *absolute* adaptive
// coverage meaningful, not the ratio. Pass AdaptiveFraction explicitly
// to restore the paper's marginal.
func DefaultConfig(sessions int) Config {
	return Config{
		Sessions:         sessions,
		AdaptiveFraction: 0.12,
		Seed:             1,
	}
}

// The corpus's fixed mix. catalogSize bounds the content pool.
// profileWeights select the network profile per session (static,
// commuter, congested), tuned so roughly 12% of sessions stall and ~4%
// severely, Figure 2's marginals. qualityCapWeights select the
// session's maximum representation over the ladder (144..1080) —
// device screens and data plans skew users toward low caps (§4.2) —
// tuned toward 57% LD / 38% SD / 5% HD average representation.
const catalogSize = 500

var (
	profileWeights    = []float64{0.80, 0.14, 0.06}
	qualityCapWeights = []float64{0.06, 0.16, 0.22, 0.44, 0.08, 0.04}
)

// profile instantiates the chosen mobility profile.
func profileByIndex(i int) (string, netsim.Profile) {
	switch i {
	case 1:
		return "commuter", netsim.CommuterProfile()
	case 2:
		return "congested", netsim.CongestedProfile()
	default:
		return "static", netsim.StaticProfile()
	}
}

// Generate builds a corpus. Sessions are generated in parallel but the
// result is deterministic for a seed: every session derives its own
// random stream from the master seed.
func Generate(cfg Config) *Corpus {
	if cfg.Sessions <= 0 {
		return &Corpus{}
	}
	master := stats.NewRand(cfg.Seed)
	service := cfg.Service
	if service.Name == "" {
		service = video.YouTubeLike()
	}
	catalog := video.NewServiceCatalog(catalogSize, master, service)
	seeds := make([]int64, cfg.Sessions)
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	sessions := make([]*Session, cfg.Sessions)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sessions[i] = generateOne(cfg, catalog, seeds[i], i)
			}
		}()
	}
	for i := 0; i < cfg.Sessions; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return &Corpus{Sessions: sessions}
}

func generateOne(cfg Config, catalog *video.Catalog, seed int64, idx int) *Session {
	r := stats.NewRand(seed)
	v := catalog.Videos[r.Intn(len(catalog.Videos))]

	profIdx := r.WeightedChoice(profileWeights)
	profName, prof := profileByIndex(profIdx)
	net := netsim.NewPath(prof, r.Fork())

	mode := player.Progressive
	if r.Float64() < cfg.AdaptiveFraction {
		mode = player.Adaptive
	}
	pcfg := player.DefaultConfig(mode)
	pcfg.MaxQuality = video.Ladder[r.WeightedChoice(qualityCapWeights)]
	if mode == player.Progressive && profIdx != 0 {
		// legacy players cannot adapt, so users on bad networks drop
		// the quality setting themselves (limited plans, §4.2)
		switch {
		case r.Float64() < 0.5 && pcfg.MaxQuality > video.Q240:
			pcfg.MaxQuality = video.Q240
		case r.Float64() < 0.5 && pcfg.MaxQuality > video.Q360:
			pcfg.MaxQuality = video.Q360
		}
	}
	if r.Float64() < 0.25 {
		pcfg.WatchFraction = 0.3 + 0.7*r.Float64()
	}

	tr := player.Run(v, net, pcfg, r.Fork())
	sub := fmt.Sprintf("sub%06d", idx)
	entries := weblog.FromTrace(tr, weblog.Options{
		Subscriber: sub,
		Encrypted:  cfg.Encrypted,
	})

	s := &Session{
		Trace:   tr,
		Entries: entries,
		Obs:     features.FromEntries(entries),
		Mode:    mode,
		Profile: profName,
	}
	if cfg.Encrypted {
		labelFromTrace(s)
	} else {
		labelFromURIs(s)
	}
	return s
}

// labelFromURIs derives ground truth the way the paper does for the
// cleartext corpus: parsing the metadata out of the request URIs.
func labelFromURIs(s *Session) {
	gts := weblog.ExtractGroundTruth(s.Entries)
	g := gts[s.Trace.SessionID]
	if g == nil {
		// no final report parsed (should not happen); fall back
		labelFromTrace(s)
		return
	}
	s.RR = g.RebufferingRatio()
	s.Stall = features.LabelStall(s.RR)
	s.AvgQuality = g.AverageQuality()
	s.Rep = features.LabelRepresentation(s.AvgQuality)
	times, quals := qualitySequence(g)
	s.SwitchFreq, s.SwitchAmp = switchTruthFromQualities(steadyPhase(times, quals))
	s.Var = features.LabelVariation(features.Variation(s.SwitchFreq, s.SwitchAmp))
}

// steadyPhase drops the first features.StartupFilterSec seconds of a
// timed quality sequence: the ground truth for representation
// variation is defined over the steady phase, consistently with what
// the detector looks at (§4.3 removes the start-up phase).
func steadyPhase(times, quals []float64) []float64 {
	if len(times) == 0 {
		return nil
	}
	base := times[0]
	var out []float64
	for i, q := range quals {
		if times[i]-base >= features.StartupFilterSec {
			out = append(out, q)
		}
	}
	return out
}

// labelFromTrace derives ground truth from the player itself — the
// instrumented-device path used for the encrypted corpus.
func labelFromTrace(s *Session) {
	tr := s.Trace
	s.RR = tr.RebufferingRatio()
	s.Stall = features.LabelStall(s.RR)
	s.AvgQuality = tr.AverageQuality()
	s.Rep = features.LabelRepresentation(s.AvgQuality)
	var times, quals []float64
	for _, c := range tr.Chunks {
		if !c.Audio {
			times = append(times, c.ArrivedAt())
			quals = append(quals, float64(c.Quality))
		}
	}
	s.SwitchFreq, s.SwitchAmp = switchTruthFromQualities(steadyPhase(times, quals))
	s.Var = features.LabelVariation(features.Variation(s.SwitchFreq, s.SwitchAmp))
}

func qualitySequence(g *weblog.GroundTruth) (times, quals []float64) {
	for _, c := range g.Chunks {
		if !c.Audio && c.Quality != 0 {
			times = append(times, c.Entry.Timestamp)
			quals = append(quals, float64(c.Quality))
		}
	}
	return times, quals
}

// switchTruthFromQualities computes the switching frequency F and the
// eq.-2 amplitude A over a per-chunk quality sequence: A is the mean
// absolute resolution difference across all consecutive chunk pairs.
func switchTruthFromQualities(quals []float64) (freq int, amp float64) {
	if len(quals) < 2 {
		return 0, 0
	}
	var sum float64
	for i := 1; i < len(quals); i++ {
		d := quals[i] - quals[i-1]
		if d < 0 {
			d = -d
		}
		if d != 0 {
			freq++
		}
		sum += d
	}
	return freq, sum / float64(len(quals)-1)
}
