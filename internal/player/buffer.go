package player

// playback is the playout-buffer clock shared by both delivery modes.
// It tracks wall time, buffered content seconds, the playing/stalled
// state, and writes stalls and the startup delay into the trace.
type playback struct {
	tr *SessionTrace

	t       float64 // wall clock, seconds from session start
	buffer  float64 // buffered content, seconds
	playing bool
	played  float64 // content seconds consumed

	startedAt    float64 // wall time playback first started, -1 before
	stalledSince float64 // wall time the current stall began, -1 if none
}

func newPlayback(tr *SessionTrace) *playback {
	return &playback{tr: tr, startedAt: -1, stalledSince: -1}
}

// advance moves the wall clock forward by d seconds (a download or a
// pacing wait). If playback is on and the buffer runs dry before d
// elapses, a stall begins at the moment of depletion.
func (p *playback) advance(d float64) {
	if d < 0 {
		d = 0
	}
	if p.playing {
		if p.buffer >= d {
			p.buffer -= d
			p.played += d
		} else {
			p.played += p.buffer
			p.stalledSince = p.t + p.buffer
			p.buffer = 0
			p.playing = false
		}
	}
	p.t += d
}

// addContent credits downloaded content and starts/resumes playback
// when the applicable threshold is reached.
func (p *playback) addContent(sec float64) {
	p.buffer += sec
	p.maybeStart(false)
}

// maybeStart transitions to playing when enough content is buffered.
// With force set, playback starts regardless of thresholds (used when
// the download has finished and no more content will arrive).
func (p *playback) maybeStart(force bool) {
	if p.playing || p.buffer <= 0 {
		return
	}
	threshold := float64(startThresholdSec)
	if p.stalledSince >= 0 {
		threshold = resumeThresholdSec
	}
	if !force && p.buffer < threshold {
		return
	}
	if p.stalledSince >= 0 {
		p.tr.Stalls = append(p.tr.Stalls, Stall{
			At:       p.stalledSince,
			Duration: p.t - p.stalledSince,
		})
		p.stalledSince = -1
	}
	if p.startedAt < 0 {
		p.startedAt = p.t
		p.tr.StartupDelay = p.t
	}
	p.playing = true
}

// stallAge returns how long the current stall has lasted, or 0.
func (p *playback) stallAge() float64 {
	if p.stalledSince < 0 {
		return 0
	}
	return p.t - p.stalledSince
}

// abandonDuringStall ends the session mid-stall after `patience`
// seconds of waiting: the stall is recorded up to the moment the user
// quits and the trace is finalized at that instant.
func (p *playback) abandonDuringStall(patience float64) {
	quitAt := p.stalledSince + patience
	if quitAt > p.t {
		quitAt = p.t
	}
	p.tr.Stalls = append(p.tr.Stalls, Stall{
		At:       p.stalledSince,
		Duration: quitAt - p.stalledSince,
	})
	p.stalledSince = -1
	p.tr.Abandoned = true
	p.tr.Duration = quitAt
	p.tr.PlayedSeconds = p.played
}

// finish plays out whatever is buffered once downloading is complete
// and finalizes the trace. watched caps the content the user intended
// to see.
func (p *playback) finish(watched float64) {
	p.maybeStart(true)
	if p.playing && p.buffer > 0 {
		p.advance(p.buffer)
	}
	end := p.t
	if p.played > watched {
		// the session actually ended when the watch target was hit
		end -= p.played - watched
		p.played = watched
	}
	p.tr.Duration = end
	p.tr.PlayedSeconds = p.played
}

// watchTargetReached reports whether the user has seen all the content
// they intended to.
func (p *playback) watchTargetReached(watched float64) bool {
	return p.played >= watched
}
