// Package player simulates video streaming sessions: a playout-buffer
// model shared by both delivery modes the paper studies (§2.1) —
// traditional progressive HTTP streaming with ON–OFF pacing, and HTTP
// Adaptive Streaming (HAS/DASH) with throughput-and-buffer-driven
// representation switching, fast start, and post-switch ramp-up.
//
// A session runs over a netsim.Network and produces a SessionTrace:
// the chunk-by-chunk download record an operator's proxy would observe
// plus the player-side ground truth (stalls, switches, abandonment)
// that the paper extracts from URI metadata or the instrumented
// Android client.
package player

import (
	"vqoe/internal/netsim"
	"vqoe/internal/stats"
	"vqoe/internal/video"
)

// Mode selects the delivery mechanism.
type Mode int

// Delivery modes.
const (
	// Progressive downloads the video as a single continuous file at
	// one fixed quality (legacy players; 97% of the cleartext corpus).
	Progressive Mode = iota
	// Adaptive fetches per-segment representations chosen by an ABR
	// controller (DASH; 3% of the cleartext corpus, all of the
	// encrypted one).
	Adaptive
)

// String names the mode.
func (m Mode) String() string {
	if m == Adaptive {
		return "adaptive"
	}
	return "progressive"
}

// Chunk is one HTTP object download of a session: a video or audio
// range/segment request together with its transport statistics.
type Chunk struct {
	Seq     int  // request order within the session
	Audio   bool // audio segment (DASH sessions interleave them)
	Quality video.Quality
	Itag    int
	Size    int
	// Seconds is the playback time the chunk carries.
	Seconds float64
	Stats   netsim.TransferStats
}

// ArrivedAt is the time the chunk finished downloading — the paper's
// "chunk time" feature (§3.1).
func (c Chunk) ArrivedAt() float64 { return c.Stats.Start + c.Stats.Duration }

// Stall is one rebuffering event.
type Stall struct {
	At       float64 // playback position in wall time when it began
	Duration float64
}

// Switch is one representation change.
type Switch struct {
	At       float64 // wall time of the first chunk at the new quality
	From, To video.Quality
}

// SignalKind classifies non-media requests of a session.
type SignalKind int

// Signal kinds observed around video sessions (§5.2): page and
// thumbnail loads at session start, periodic playback statistic
// reports during the session.
const (
	SignalPageLoad SignalKind = iota
	SignalImageLoad
	SignalStatsReport
)

// Signal is a non-media HTTP request tied to the session.
type Signal struct {
	At   float64
	Kind SignalKind
	// Final marks the end-of-playback stats report.
	Final bool
}

// SessionTrace is the complete record of one simulated video session.
type SessionTrace struct {
	SessionID string // 16-character ID, as generated by the service
	Video     *video.Video
	Mode      Mode
	// Start is the wall-clock offset of the session within its
	// subscriber's timeline (set by the workload generator).
	Start float64

	Chunks   []Chunk
	Signals  []Signal
	Stalls   []Stall
	Switches []Switch

	// StartupDelay is the initial delay: the time from the first
	// request until playback begins. Its two components (§2.2): the
	// network delay (DNS, redirections, page construction, before any
	// media flows) and the initial buffering delay (filling the buffer
	// to the start threshold).
	StartupDelay float64
	// NetworkDelay is the pre-media component of StartupDelay.
	NetworkDelay float64
	// Duration is t_total: wall time from first request to the end of
	// playback (or abandonment).
	Duration float64
	// PlayedSeconds is the content time actually watched.
	PlayedSeconds float64
	Abandoned     bool
}

// RebufferingRatio returns RR = Σ t_stall / t_total (eq. 1).
func (s *SessionTrace) RebufferingRatio() float64 {
	if s.Duration <= 0 {
		return 0
	}
	var sum float64
	for _, st := range s.Stalls {
		sum += st.Duration
	}
	rr := sum / s.Duration
	if rr > 1 {
		rr = 1
	}
	return rr
}

// StallCount returns the number of rebuffering events.
func (s *SessionTrace) StallCount() int { return len(s.Stalls) }

// TotalStallSeconds sums the stall durations.
func (s *SessionTrace) TotalStallSeconds() float64 {
	var sum float64
	for _, st := range s.Stalls {
		sum += st.Duration
	}
	return sum
}

// AverageQuality returns the playback-weighted mean resolution of the
// session's video chunks (μ of the paper's RQ rule). Audio chunks are
// excluded. Returns 0 for a session with no video chunks.
func (s *SessionTrace) AverageQuality() float64 {
	var wsum, w float64
	for _, c := range s.Chunks {
		if c.Audio || c.Seconds <= 0 {
			continue
		}
		wsum += float64(c.Quality) * c.Seconds
		w += c.Seconds
	}
	if w == 0 {
		return 0
	}
	return wsum / w
}

// SwitchFrequency returns F: the number of representation switches.
func (s *SessionTrace) SwitchFrequency() int { return len(s.Switches) }

// SwitchAmplitude returns A, the normalized switch amplitude of eq. 2:
// the mean absolute resolution difference across consecutive
// representations. Sessions without switches return 0.
func (s *SessionTrace) SwitchAmplitude() float64 {
	if len(s.Switches) == 0 {
		return 0
	}
	var sum float64
	for _, sw := range s.Switches {
		d := float64(sw.To - sw.From)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(s.Switches))
}

// Config parameterizes a playback session.
type Config struct {
	Mode Mode
	// MaxQuality caps the representation (device screen / user choice).
	MaxQuality video.Quality
	// AbandonStallSec: a single stall longer than this makes the user
	// quit (plus per-user patience noise).
	AbandonStallSec float64
	// WatchFraction in (0,1] lets users stop early even without
	// problems (1 = watch to the end).
	WatchFraction float64
	// ABRSafety overrides the ABR throughput discount (0 = default
	// 0.85). Lower is more conservative: fewer stalls, lower quality.
	ABRSafety float64
}

// DefaultConfig returns sensible player parameters for the mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:            mode,
		MaxQuality:      video.Q480,
		AbandonStallSec: 45,
		WatchFraction:   1,
	}
}

// Playout-buffer levels, in content seconds: playback begins once
// startThresholdSec is buffered and resumes after a stall at
// resumeThresholdSec; above its mode's buffer target the downloader
// sleeps until the buffer drains back to it (a progressive player
// paces further ahead).
const (
	startThresholdSec          = 2
	resumeThresholdSec         = 3
	adaptiveBufferTargetSec    = 30
	progressiveBufferTargetSec = 40
)

// Run simulates one session of v over net and returns its trace.
func Run(v *video.Video, net netsim.Network, cfg Config, r *stats.Rand) *SessionTrace {
	if cfg.WatchFraction <= 0 || cfg.WatchFraction > 1 {
		cfg.WatchFraction = 1
	}
	tr := &SessionTrace{
		SessionID: newSessionID(r),
		Video:     v,
		Mode:      cfg.Mode,
	}
	if cfg.Mode == Adaptive {
		runAdaptive(tr, net, cfg, r)
	} else {
		runProgressive(tr, net, cfg, r)
	}
	return tr
}

const sessionIDAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

func newSessionID(r *stats.Rand) string {
	b := make([]byte, 16)
	for i := range b {
		b[i] = sessionIDAlphabet[r.Intn(len(sessionIDAlphabet))]
	}
	return string(b)
}
