package player

import (
	"vqoe/internal/netsim"
	"vqoe/internal/stats"
	"vqoe/internal/video"
)

// blockSeconds is the content carried by one steady-state range request
// of a progressive session. The service throttles delivery to roughly
// the playback rate after the startup burst, and players issue range
// requests of a few seconds of content each, producing the ON–OFF
// cycle of §2.1.
const blockSeconds = 5.0

func runProgressive(tr *SessionTrace, net netsim.Network, cfg Config, r *stats.Rand) {
	v := tr.Video
	pb := newPlayback(tr, cfg)
	conn := netsim.NewConn(net, r.Fork())

	emitStartSignals(tr, pb, r)
	tr.NetworkDelay = pb.t // everything before the first media request

	rep := video.ProgressiveRepresentation(cfg.MaxQuality)
	totalBytes := v.ProgressiveSize(rep.Quality)
	bytesPerSec := float64(totalBytes) / v.Duration
	blockBytes := int(bytesPerSec * blockSeconds)
	if blockBytes < 1 {
		blockBytes = 1
	}

	watched := cfg.WatchFraction * v.Duration
	patience := cfg.AbandonStallSec * (0.5 + r.Float64())
	maxWall := 10*v.Duration + 600
	nextReport := pb.t + statsReportInterval

	remaining := totalBytes
	ramp := 0 // the startup burst uses full-size blocks

	for remaining > 0 {
		if pb.buffer > cfg.BufferTargetSec {
			pb.advance(pb.buffer - cfg.BufferTargetSec)
			if pb.watchTargetReached(watched) {
				break
			}
		}

		parts := 1
		if ramp > 0 {
			parts = 1 << uint(ramp)
			ramp--
		}
		bytes := blockBytes / parts
		if bytes > remaining || remaining-bytes < blockBytes/3 {
			// extend the final range request to cover the remainder
			// rather than issuing a tiny tail request
			bytes = remaining
		}
		if bytes <= 0 {
			bytes = 1
		}

		st := conn.Download(pb.t, bytes)
		pb.advance(st.Duration)
		tr.Chunks = append(tr.Chunks, Chunk{
			Seq:     len(tr.Chunks),
			Quality: rep.Quality,
			Itag:    rep.Itag,
			Size:    bytes,
			Seconds: float64(bytes) / bytesPerSec,
			Stats:   st,
		})

		wasStalled := pb.stalledSince >= 0
		pb.addContent(float64(bytes) / bytesPerSec)
		if wasStalled && pb.stalledSince < 0 {
			ramp = rampStall // post-stall refill restarts with small requests
		}
		remaining -= bytes

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
		if pb.watchTargetReached(watched) {
			break
		}
	}

	emitDrainReports(tr, pb, nextReport)
	pb.finish(watched)
	emitFinalReport(tr, r)
}
