// Package netsim models the cellular network path between a mobile
// video client and the content servers.
//
// The paper's models consume per-chunk transport-layer statistics
// (RTT, bandwidth-delay product, bytes-in-flight, loss and
// retransmission rates — Table 1) measured by an operator's web proxy.
// netsim substitutes the production network with a Markov-modulated
// path: the radio channel moves between Good/Fair/Poor/Outage states
// whose dwell times and intra-state variability depend on a mobility
// profile (a static office user sees long Good dwells; a commuter
// bounces through Poor and Outage). A TCP-like transfer model
// (transfer.go) downloads chunks across this path and reports the same
// statistics a proxy would log.
package netsim

import (
	"fmt"

	"vqoe/internal/stats"
)

// State is a radio channel quality state.
type State int

// Channel states, from best to worst.
const (
	Good State = iota
	Fair
	Poor
	Outage
	numStates
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Good:
		return "good"
	case Fair:
		return "fair"
	case Poor:
		return "poor"
	case Outage:
		return "outage"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Conditions are the instantaneous path characteristics.
type Conditions struct {
	// BandwidthBps is the available end-to-end bandwidth in bits/s.
	BandwidthBps float64
	// RTT is the base round-trip time in seconds.
	RTT float64
	// LossProb is the per-packet loss probability.
	LossProb float64
}

// BDPBytes returns the bandwidth-delay product in bytes: the link
// capacity divided by its round-trip delay, i.e. the maximum number of
// bytes in flight the path sustains (§3.1).
func (c Conditions) BDPBytes() float64 {
	return c.BandwidthBps / 8 * c.RTT
}

// Network is anything that can report path conditions over time.
// Path implements it with a stochastic state process; Scripted
// implements it with fixed steps for controlled experiments.
type Network interface {
	At(t float64) Conditions
}

// StateParams describe one channel state.
type StateParams struct {
	// BandwidthBps is the mean available bandwidth in the state.
	BandwidthBps float64
	// BandwidthCV is the coefficient of variation of the per-dwell
	// bandwidth draw.
	BandwidthCV float64
	// RTT is the mean base RTT in seconds.
	RTT float64
	// RTTJitter is the std of the per-dwell RTT draw, seconds.
	RTTJitter float64
	// LossProb is the per-packet loss probability.
	LossProb float64
}

// Profile is a mobility/usage pattern: per-state parameters, a state
// transition matrix, and mean dwell time.
type Profile struct {
	Name string
	// States holds parameters for Good, Fair, Poor, Outage in order.
	States [numStates]StateParams
	// Transition[s] is the next-state distribution when leaving s.
	Transition [numStates][numStates]float64
	// DwellMean is the mean sojourn time per state, seconds.
	DwellMean float64
	// DwellScale optionally scales the sojourn time per state (zero
	// means 1). Outages — tunnels, handovers — are typically much
	// shorter than good-coverage stretches.
	DwellScale [numStates]float64
	// Start is the initial-state distribution.
	Start [numStates]float64
}

// StaticProfile models a user at home or in the office on a stable 3G
// cell: dominated by long Good dwells, occasional Fair periods, and
// practically no outages (§5.4: healthy sessions come from static use).
func StaticProfile() Profile {
	return Profile{
		Name: "static",
		States: [numStates]StateParams{
			Good:   {BandwidthBps: 7e6, BandwidthCV: 0.25, RTT: 0.070, RTTJitter: 0.035, LossProb: 0.0005},
			Fair:   {BandwidthBps: 2.5e6, BandwidthCV: 0.30, RTT: 0.095, RTTJitter: 0.050, LossProb: 0.003},
			Poor:   {BandwidthBps: 0.7e6, BandwidthCV: 0.40, RTT: 0.150, RTTJitter: 0.080, LossProb: 0.012},
			Outage: {BandwidthBps: 0.05e6, BandwidthCV: 0.5, RTT: 0.350, RTTJitter: 0.200, LossProb: 0.05},
		},
		Transition: [numStates][numStates]float64{
			Good:   {0, 0.95, 0.05, 0},
			Fair:   {0.90, 0, 0.10, 0},
			Poor:   {0.30, 0.65, 0, 0.05},
			Outage: {0.10, 0.30, 0.60, 0},
		},
		DwellMean:  45,
		DwellScale: [numStates]float64{1, 1, 0.6, 0.25},
		Start:      [numStates]float64{0.85, 0.13, 0.02, 0},
	}
}

// CommuterProfile models a user on the move: shorter dwells, frequent
// Fair/Poor periods and occasional outages (tunnels, handovers). The
// encrypted-traffic dataset of §5 was collected from a commuting user.
func CommuterProfile() Profile {
	return Profile{
		Name: "commuter",
		States: [numStates]StateParams{
			Good:   {BandwidthBps: 5e6, BandwidthCV: 0.35, RTT: 0.080, RTTJitter: 0.045, LossProb: 0.001},
			Fair:   {BandwidthBps: 1.8e6, BandwidthCV: 0.40, RTT: 0.110, RTTJitter: 0.060, LossProb: 0.005},
			Poor:   {BandwidthBps: 0.45e6, BandwidthCV: 0.50, RTT: 0.190, RTTJitter: 0.100, LossProb: 0.02},
			Outage: {BandwidthBps: 0.03e6, BandwidthCV: 0.6, RTT: 0.450, RTTJitter: 0.250, LossProb: 0.08},
		},
		Transition: [numStates][numStates]float64{
			Good:   {0, 0.80, 0.18, 0.02},
			Fair:   {0.55, 0, 0.40, 0.05},
			Poor:   {0.15, 0.55, 0, 0.30},
			Outage: {0.05, 0.25, 0.70, 0},
		},
		DwellMean:  18,
		DwellScale: [numStates]float64{1, 1, 0.6, 0.35},
		Start:      [numStates]float64{0.40, 0.35, 0.20, 0.05},
	}
}

// CongestedProfile models a static user behind a congested cell, the
// low-bandwidth regime in which traditional streaming stalls.
func CongestedProfile() Profile {
	return Profile{
		Name: "congested",
		States: [numStates]StateParams{
			Good:   {BandwidthBps: 2.2e6, BandwidthCV: 0.35, RTT: 0.100, RTTJitter: 0.055, LossProb: 0.004},
			Fair:   {BandwidthBps: 0.9e6, BandwidthCV: 0.45, RTT: 0.150, RTTJitter: 0.080, LossProb: 0.012},
			Poor:   {BandwidthBps: 0.45e6, BandwidthCV: 0.55, RTT: 0.220, RTTJitter: 0.120, LossProb: 0.03},
			Outage: {BandwidthBps: 0.03e6, BandwidthCV: 0.6, RTT: 0.500, RTTJitter: 0.280, LossProb: 0.10},
		},
		Transition: [numStates][numStates]float64{
			Good:   {0, 0.75, 0.23, 0.02},
			Fair:   {0.45, 0, 0.50, 0.05},
			Poor:   {0.10, 0.68, 0, 0.22},
			Outage: {0.02, 0.28, 0.70, 0},
		},
		DwellMean:  25,
		DwellScale: [numStates]float64{1, 1, 0.45, 0.35},
		Start:      [numStates]float64{0.25, 0.40, 0.30, 0.05},
	}
}

// condSegment is one piecewise-constant stretch of the condition
// timeline.
type condSegment struct {
	until float64 // segment covers [prev.until, until)
	cond  Conditions
	state State
}

// Path is a stochastic network path following a Profile. Conditions
// are generated lazily as a piecewise-constant timeline; queries at
// increasing times extend the timeline deterministically for the
// path's seed.
type Path struct {
	profile Profile
	rng     *stats.Rand
	segs    []condSegment
	state   State
}

// NewPath creates a path following profile, seeded for reproducibility.
func NewPath(profile Profile, r *stats.Rand) *Path {
	p := &Path{profile: profile, rng: r}
	p.state = State(r.WeightedChoice(profile.Start[:]))
	p.appendSegment(0)
	return p
}

func (p *Path) appendSegment(from float64) {
	sp := p.profile.States[p.state]
	scale := p.profile.DwellScale[p.state]
	if scale <= 0 {
		scale = 1
	}
	dwell := p.rng.Exp(p.profile.DwellMean * scale)
	if dwell < 1 {
		dwell = 1
	}
	bw := p.rng.LogNormalMeanCV(sp.BandwidthBps, sp.BandwidthCV)
	if bw < 1e3 {
		bw = 1e3 // floor: even an outage trickles, avoiding stuck transfers
	}
	rtt := p.rng.TruncNormal(sp.RTT, sp.RTTJitter, 0.010, 3)
	// loss also varies dwell to dwell: real radio loss is bursty and
	// overlaps heavily across channel states, which keeps per-state
	// loss from becoming an artificially clean classifier input
	loss := p.rng.LogNormalMeanCV(sp.LossProb, 0.8)
	if loss > 0.25 {
		loss = 0.25
	}
	p.segs = append(p.segs, condSegment{
		until: from + dwell,
		cond:  Conditions{BandwidthBps: bw, RTT: rtt, LossProb: loss},
		state: p.state,
	})
	// choose the next state now so the chain is advanced exactly once
	// per segment regardless of query pattern
	row := p.profile.Transition[p.state]
	p.state = State(p.rng.WeightedChoice(row[:]))
}

// At returns the conditions at time t (seconds from the path origin).
// Queries may arrive in any order; the timeline is extended as needed.
func (p *Path) At(t float64) Conditions {
	if t < 0 {
		t = 0
	}
	for p.segs[len(p.segs)-1].until <= t {
		p.appendSegment(p.segs[len(p.segs)-1].until)
	}
	// binary search would be possible; linear from the back is fine for
	// the mostly-monotone access pattern of a transfer loop
	for i := len(p.segs) - 1; i >= 0; i-- {
		if i == 0 || p.segs[i-1].until <= t {
			return p.segs[i].cond
		}
	}
	return p.segs[0].cond
}

// Scripted is a deterministic Network built from explicit steps, used
// by the controlled experiments behind Figures 1 and 3.
type Scripted struct {
	// Steps hold conditions applying from their Start time until the
	// next step's Start (the last step applies forever). Steps must be
	// ordered by Start.
	Steps []ScriptStep
}

// ScriptStep is one piece of a scripted condition timeline.
type ScriptStep struct {
	Start float64
	Cond  Conditions
}

// At returns the scripted conditions at time t.
func (s *Scripted) At(t float64) Conditions {
	if len(s.Steps) == 0 {
		return Conditions{BandwidthBps: 1e6, RTT: 0.1}
	}
	cur := s.Steps[0].Cond
	for _, st := range s.Steps {
		if st.Start > t {
			break
		}
		cur = st.Cond
	}
	return cur
}
