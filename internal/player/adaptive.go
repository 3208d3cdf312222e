package player

import (
	"vqoe/internal/netsim"
	"vqoe/internal/stats"
	"vqoe/internal/video"
)

// rampStall and rampSwitch control the post-stall / post-switch
// request ramp: the player
// refills the buffer with small range requests that grow back to full
// segments — the first segment is fetched in 4 parts, the next in 2,
// then whole segments again. This is the behaviour behind the small
// chunk sizes after stalls (Fig 1) and the gradually increasing Δsize
// and Δt after representation switches (Fig 3). The initial fast
// start, by contrast, fetches full (low-quality) segments back to
// back — problem-free sessions never exhibit small range requests,
// which is exactly why "chunk size min" carries so much information
// for stall detection (§4.1).
// After a stall the buffer is empty and the refill is most aggressive
// (the next segment is fetched in sixteenths, then eighths, ... —
// Figure 1 shows chunk sizes collapsing to near zero); after a mere
// representation switch the buffer is still partly full and the ramp
// is gentle (halves — Figure 3 shows a moderate dip).
const (
	rampStall  = 4
	rampSwitch = 1
)

// statsReportInterval is the wall-time spacing of the periodic playback
// statistic reports the player posts to the service (§3.2).
const statsReportInterval = 30.0

// audioBatch is the number of audio segments fetched per audio range
// request: audio is two orders of magnitude cheaper than video, so
// players batch it.
const audioBatch = 8

func runAdaptive(tr *SessionTrace, net netsim.Network, cfg Config, r *stats.Rand) {
	v := tr.Video
	pb := newPlayback(tr)
	videoConn := netsim.NewConn(net, r.Fork())
	audioConn := netsim.NewConn(net, r.Fork())
	ctl := newABR(cfg.MaxQuality, cfg)

	emitStartSignals(tr, pb, r)
	tr.NetworkDelay = pb.t // everything before the first media request

	watched := cfg.WatchFraction * v.Duration
	patience := cfg.AbandonStallSec * (0.5 + r.Float64())
	maxWall := 10*v.Duration + 600
	nextReport := pb.t + statsReportInterval

	cur := ctl.initial()
	if cur > cfg.MaxQuality {
		cur = cfg.MaxQuality
	}
	ramp := 0
	segCount := v.NumSegments()

	for seg := 0; seg < segCount; seg++ {
		// ON–OFF pacing: above the buffer target the downloader sleeps
		// until the buffer drains back to it.
		if pb.buffer > adaptiveBufferTargetSec {
			pb.advance(pb.buffer - adaptiveBufferTargetSec)
			if pb.watchTargetReached(watched) {
				break
			}
		}

		q := ctl.next(cur, pb.buffer)
		if q != cur && seg > 0 {
			tr.Switches = append(tr.Switches, Switch{At: pb.t, From: cur, To: q})
			if ramp < rampSwitch {
				ramp = rampSwitch
			}
		}
		cur = q

		segSize := v.SegmentSize(q, seg)
		segDur := v.SegmentDuration(seg)
		parts := 1
		if ramp > 0 {
			parts = 1 << uint(ramp)
			ramp--
		}

		stalledMidSegment := false
		for part := 0; part < parts; part++ {
			bytes := segSize / parts
			if part == parts-1 {
				bytes = segSize - bytes*(parts-1) // remainder to the last part
			}
			if bytes <= 0 {
				bytes = 1
			}
			st := videoConn.Download(pb.t, bytes)
			pb.advance(st.Duration)
			tr.Chunks = append(tr.Chunks, Chunk{
				Seq:     len(tr.Chunks),
				Quality: q,
				Itag:    video.DASHRepresentation(q).Itag,
				Size:    bytes,
				Seconds: segDur / float64(parts),
				Stats:   st,
			})
			ctl.observe(st.Throughput())

			wasStalled := pb.stalledSince >= 0
			pb.addContent(segDur / float64(parts))
			if wasStalled && pb.stalledSince < 0 {
				stalledMidSegment = true
			}

			if pb.stalledSince >= 0 && pb.stallAge() > patience {
				pb.abandonDuringStall(patience)
				emitFinalReport(tr, r)
				return
			}
			if pb.t > maxWall {
				pb.abandonAtCap()
				emitFinalReport(tr, r)
				return
			}
			for pb.t >= nextReport {
				tr.Signals = append(tr.Signals, Signal{At: nextReport, Kind: SignalStatsReport})
				nextReport += statsReportInterval
			}
		}
		if stalledMidSegment {
			ramp = rampStall // refill after the stall restarts the ramp
		}

		// audio runs on its own connection and is cheap, so the player
		// fetches it in multi-segment ranges (one request per
		// audioBatch video segments)
		if seg%audioBatch == 0 {
			bytes := 0
			var secs float64
			for k := seg; k < seg+audioBatch && k < segCount; k++ {
				bytes += v.AudioSegmentSize(k)
				secs += v.SegmentDuration(k)
			}
			ast := audioConn.Download(pb.t, bytes)
			pb.advance(ast.Duration)
			tr.Chunks = append(tr.Chunks, Chunk{
				Seq:     len(tr.Chunks),
				Audio:   true,
				Itag:    video.AudioItag,
				Size:    ast.Bytes,
				Seconds: secs,
				Stats:   ast,
			})
		}
		if pb.stalledSince >= 0 && pb.stallAge() > patience {
			pb.abandonDuringStall(patience)
			emitFinalReport(tr, r)
			return
		}
		if pb.watchTargetReached(watched) {
			break
		}
	}

	emitDrainReports(tr, pb, nextReport)
	pb.finish(watched)
	emitFinalReport(tr, r)
}

// emitDrainReports continues the periodic statistics reports through
// the playout of the remaining buffer after downloading has finished —
// players keep reporting for as long as playback runs.
func emitDrainReports(tr *SessionTrace, pb *playback, nextReport float64) {
	end := pb.t + pb.buffer
	for at := nextReport; at < end; at += statsReportInterval {
		tr.Signals = append(tr.Signals, Signal{At: at, Kind: SignalStatsReport})
	}
}

// abandonAtCap finalizes a pathologically slow session (the wall-time
// guard): treated as abandonment at the current instant.
func (p *playback) abandonAtCap() {
	if p.stalledSince >= 0 {
		p.tr.Stalls = append(p.tr.Stalls, Stall{
			At:       p.stalledSince,
			Duration: p.t - p.stalledSince,
		})
		p.stalledSince = -1
	}
	p.tr.Abandoned = true
	p.tr.Duration = p.t
	p.tr.PlayedSeconds = p.played
}

// emitStartSignals produces the page-construction requests observed at
// the beginning of every session — the m.youtube.com HTML and
// i.ytimg.com thumbnails the sessionizer keys on (§5.2) — and advances
// the clock past the initial network delay.
func emitStartSignals(tr *SessionTrace, pb *playback, r *stats.Rand) {
	tr.Signals = append(tr.Signals, Signal{At: pb.t, Kind: SignalPageLoad})
	n := 2 + r.Intn(4)
	for i := 0; i < n; i++ {
		pb.advance(0.05 + 0.2*r.Float64())
		tr.Signals = append(tr.Signals, Signal{At: pb.t, Kind: SignalImageLoad})
	}
	// DNS + redirect + player bootstrap before the first media request
	pb.advance(0.3 + 0.7*r.Float64())
}

// emitFinalReport appends the end-of-playback statistics report that
// carries the session's stall summary (§3.2).
func emitFinalReport(tr *SessionTrace, r *stats.Rand) {
	at := tr.Duration + 0.1 + 0.3*r.Float64()
	tr.Signals = append(tr.Signals, Signal{At: at, Kind: SignalStatsReport, Final: true})
}
