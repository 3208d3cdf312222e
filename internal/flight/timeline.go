package flight

import (
	"sync/atomic"

	"vqoe/internal/core"
	"vqoe/internal/mos"
)

// EventKind classifies one timeline event.
type EventKind uint8

const (
	// EvChunk is one media chunk's completed download.
	EvChunk EventKind = iota
	// EvGap is a synthesized rebuffer-suspect span: one of the largest
	// inter-chunk silences of a stalled session.
	EvGap
	// EvFeatures summarizes the session's feature view at assess time.
	EvFeatures
	// EvStall is the stall detector's verdict with attributions.
	EvStall
	// EvRep is the representation detector's verdict with attributions.
	EvRep
	// EvSwitch is the CUSUM switching-variance verdict.
	EvSwitch
	// EvMOS is the folded mean-opinion score.
	EvMOS
	// EvCohort attributes the session to its fleet cohort.
	EvCohort
	// EvLabel is a delayed ground-truth label that contradicted the
	// prediction (appended by ObserveOutcome).
	EvLabel
)

var eventKindNames = [...]string{
	"chunk", "gap", "features", "stall_verdict", "rep_verdict",
	"switch", "mos", "cohort", "label",
}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one compact timeline entry. The V fields are kind-specific
// scalars (sizes, durations, confidences, scores) that EventJSON
// renders under descriptive names; keeping them flat and pointer-light
// keeps a retained session's memory accounting simple and its resident
// footprint cheap for the garbage collector to scan. Attributions are
// never stored — they are replayed from the session's retained
// projected vectors when a timeline is rendered.
type Event struct {
	TS   float64 // capture-clock seconds
	Kind EventKind
	V1   float64
	V2   float64
	V3   float64
	Note string
}

// EventJSON is the rendered form of one Event served by
// /debug/flight/{subscriber}/{session}.
type EventJSON struct {
	TS   float64 `json:"ts"`
	Kind string  `json:"kind"`

	SizeKB         float64 `json:"size_kb,omitempty"`         // chunk
	DurationSec    float64 `json:"duration_sec,omitempty"`    // chunk
	ThroughputKBps float64 `json:"throughput_kbps,omitempty"` // chunk
	GapSec         float64 `json:"gap_sec,omitempty"`         // gap

	Chunks       int                       `json:"chunks,omitempty"`        // features
	TotalKB      float64                   `json:"total_kb,omitempty"`      // features
	MeanThrKBps  float64                   `json:"mean_thr_kbps,omitempty"` // features
	Class        string                    `json:"class,omitempty"`         // stall/rep verdicts
	Confidence   float64                   `json:"confidence,omitempty"`    // stall/rep verdicts
	Score        float64                   `json:"score,omitempty"`         // switch CUSUM score
	Varying      bool                      `json:"varying,omitempty"`       // switch verdict
	MOS          float64                   `json:"mos,omitempty"`           // mos fold
	Verbal       string                    `json:"verbal,omitempty"`        // mos fold
	Cohort       string                    `json:"cohort,omitempty"`        // cohort attribution
	Note         string                    `json:"note,omitempty"`          // label
	Attributions []core.FeatureAttribution `json:"attributions,omitempty"`
}

// render expands the compact event into its JSON form.
func (e *Event) render() EventJSON {
	out := EventJSON{TS: e.TS, Kind: e.Kind.String()}
	switch e.Kind {
	case EvChunk:
		out.SizeKB = e.V1
		out.DurationSec = e.V2
		out.ThroughputKBps = e.V3
	case EvGap:
		out.GapSec = e.V1
	case EvFeatures:
		out.Chunks = int(e.V1)
		out.TotalKB = e.V2
		out.MeanThrKBps = e.V3
	case EvStall, EvRep:
		out.Class = e.Note
		out.Confidence = e.V1
	case EvSwitch:
		out.Score = e.V1
		out.Varying = e.V2 != 0
	case EvMOS:
		out.MOS = e.V1
		out.Verbal = e.Note
	case EvCohort:
		out.Cohort = e.Note
	case EvLabel:
		out.Note = e.Note
	}
	return out
}

// chunkRec is one retained chunk download, compacted out of its
// features.ChunkObs at retention: the end timestamp, transfer duration,
// and size are all a timeline render needs, and the record is
// pointer-free — the garbage collector never scans a retained ring's
// chunk arrays, which is what keeps a full flight ring's resident
// cost off the ingest path's GC cycles.
type chunkRec struct {
	ts  float64 // capture-clock end timestamp (arrival + transfer)
	dur float64 // transfer duration, seconds
	kb  float64 // chunk size, kilobytes
}

// Session is one retained session's record: the header the index
// serves, the compacted chunk records the timeline is materialized
// from at render time, and the verdict needed to replay the assess
// fold. The exported fields and the retained raw material (chunks,
// report, projected vectors) are immutable after newSession; labels,
// bytes, and reasons may grow via ObserveOutcome under the owning
// shard's ring lock. dead is flipped once on eviction so exemplar
// registries drop stale links without holding ring locks.
type Session struct {
	Subscriber string
	Start, End float64
	Shard      int
	Chunks     int
	MOS        float64
	Verbal     string
	Stall      string
	Rep        string
	Cohort     string

	// chunks holds the first maxEvents video chunk downloads, compacted
	// to pointer-free records at retention; totals below summarize the
	// whole session so truncation never skews the features event.
	chunks     []chunkRec
	chunkCount int     // video chunks seen, kept or not
	totalKB    float64 // whole-session video bytes, KB
	totalSec   float64 // whole-session transfer time
	rawEntries int     // flow-buffer entries the session closed with
	// report is the assess-time verdict the timeline fold replays.
	report core.Report
	// labels holds delayed EvLabel events appended by ObserveOutcome,
	// rendered after the assess fold (guarded by the ring lock).
	labels []Event
	// stallProj / repProj are the detectors' projected feature vectors,
	// copied at retention so decision-path attribution can be replayed
	// at drill-down time without touching the (since reused) scratch.
	stallProj []float64
	repProj   []float64
	reasons   Reason
	truncated int64
	bytes     int64
	dead      atomic.Bool
}

// newSession retains one session: a header copy plus one float-only
// pass over the already-buffered chunk observations that compacts them
// into pointer-free records (capped at maxEvents) and folds the
// whole-session totals. The chunk buffer is not referenced afterwards
// — the caller recycles it — so a full ring adds nothing to the
// collector's scan work while ingest runs hot. No timeline exists yet;
// Session.timeline materializes the event view when an operator
// actually drills down.
func newSession(a Assessment, score float64, reasons Reason, shard, maxEvents int) *Session {
	sess := &Session{
		Subscriber: a.Subscriber,
		Start:      a.Start,
		End:        a.End,
		Shard:      shard,
		Chunks:     a.Report.Chunks,
		MOS:        score,
		Verbal:     mos.Score(score).Verbal(),
		Stall:      a.Report.Stall.String(),
		Rep:        a.Report.Representation.String(),
		rawEntries: a.RawEntries,
		report:     a.Report,
		reasons:    reasons,
	}
	sess.Cohort = a.Cohort
	sess.stallProj, sess.repProj = a.StallProj, a.RepProj
	keep := a.Report.Chunks
	if keep > maxEvents {
		keep = maxEvents
	}
	if keep > 0 {
		sess.chunks = make([]chunkRec, 0, keep)
	}
	for i := range a.Chunks {
		c := &a.Chunks[i]
		sess.chunkCount++
		sess.totalKB += c.SizeKB
		sess.totalSec += c.DurationSec
		if len(sess.chunks) < maxEvents {
			sess.chunks = append(sess.chunks, chunkRec{ts: c.Time, dur: c.DurationSec, kb: c.SizeKB})
		}
	}
	if t := int64(sess.chunkCount - len(sess.chunks)); t > 0 {
		sess.truncated = t
	}
	sess.bytes = int64(sessionOverheadBytes+len(sess.Subscriber)+len(sess.Cohort)+
		len(sess.Stall)+len(sess.Rep)+len(sess.Verbal)+
		8*(len(sess.stallProj)+len(sess.repProj))) +
		int64(cap(sess.chunks))*chunkRecBytes
	return sess
}

// timeline materializes the session's event view from the retained
// raw material: chunk events from the compacted records (capped at
// maxEvents, overflow pre-counted in truncated), gap synthesis for
// stalled sessions, the assess-time fold — feature summary, both
// verdicts, switch score, MOS, cohort — then any delayed label
// events. Everything it reads is immutable after retention except
// labels, which the caller copies out under the ring lock and passes
// in. Attribution of the verdict events is the renderer's job (see
// Recorder.attribute); the timeline itself stays pointer-light.
func (s *Session) timeline(labels []Event) []Event {
	evs := make([]Event, 0, len(s.chunks)+maxGapEvents+6+len(labels))

	// stalled sessions get the largest inter-chunk silences marked as
	// gap events; pick them in a first float-only pass over the chunk
	// records so the event loop below can emit every Event exactly
	// once, in place — no post-hoc insertion ever rewrites the slice
	var gaps gapSet
	if s.reasons&ReasonStalled != 0 {
		gaps = pickGaps(s.chunks)
	}

	for i := range s.chunks {
		c := &s.chunks[i]
		ev := Event{TS: c.ts, Kind: EvChunk, V1: c.kb, V2: c.dur}
		if c.dur > 0 {
			ev.V3 = c.kb / c.dur
		}
		evs = append(evs, ev)
		// the gap a chunk's arrival ended renders right after it, at the
		// same timestamp — where a stable TS sort would land it
		if d := gaps.at(i); d > 0 {
			evs = append(evs, Event{TS: ev.TS, Kind: EvGap, V1: d})
		}
	}

	feat := Event{TS: s.End, Kind: EvFeatures, V1: float64(s.chunkCount), V2: s.totalKB}
	if s.totalSec > 0 {
		feat.V3 = s.totalKB / s.totalSec
	}
	evs = append(evs, feat)
	evs = append(evs,
		Event{TS: s.End, Kind: EvStall, V1: s.report.StallConf, Note: s.Stall},
		Event{TS: s.End, Kind: EvRep, V1: s.report.RepConf, Note: s.Rep},
		Event{TS: s.End, Kind: EvSwitch, V1: s.report.SwitchScore, V2: b2f(s.report.SwitchVariance)},
		Event{TS: s.End, Kind: EvMOS, V1: s.MOS, Note: s.Verbal},
	)
	if s.Cohort != "" {
		evs = append(evs, Event{TS: s.End, Kind: EvCohort, Note: s.Cohort})
	}
	return append(evs, labels...)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// maxGapEvents bounds gap synthesis per stalled session.
const maxGapEvents = 3

// gapSet is the result of pickGaps: the chunk ordinals whose arrival
// ended one of the session's largest silences, with the silence
// lengths. Zero value = no gaps.
type gapSet struct {
	ord [maxGapEvents]int
	dur [maxGapEvents]float64
	n   int
}

// at returns the silence that chunk ordinal k (0-based, over kept
// chunks) ended, or 0 when none of the picked gaps end there.
func (g *gapSet) at(k int) float64 {
	for i := 0; i < g.n; i++ {
		if g.ord[i] == k {
			return g.dur[i]
		}
	}
	return 0
}

// pickGaps finds the maxGapEvents largest inter-chunk silences among
// the retained chunk records (the chunks a timeline will keep), so a
// stalled session's timeline shows *where* playback likely
// rebuffered, not just that the detector said so. Longest silences
// win; equal lengths break toward the earlier chunk. One float-only
// pass, no allocation.
func pickGaps(chunks []chunkRec) gapSet {
	var g gapSet
	var prev float64
	for k := range chunks {
		ts := chunks[k].ts
		if k > 0 {
			if d := ts - prev; d > 0 {
				keep := g.n < maxGapEvents
				if keep {
					g.ord[g.n], g.dur[g.n] = k, d
					g.n++
				} else if d > g.dur[g.n-1] {
					g.ord[g.n-1], g.dur[g.n-1] = k, d
					keep = true
				}
				if keep {
					for j := g.n - 1; j > 0 && g.dur[j] > g.dur[j-1]; j-- {
						g.ord[j], g.ord[j-1] = g.ord[j-1], g.ord[j]
						g.dur[j], g.dur[j-1] = g.dur[j-1], g.dur[j]
					}
				}
			}
		}
		prev = ts
	}
	return g
}

// Memory accounting constants: a conservative per-record overhead plus
// the variable-size payloads. They only need to be stable and roughly
// honest — the budget is a cap on resident footprint, not a heap
// audit. chunkRecBytes is sizeof(chunkRec): the compacted, pointer-free
// per-chunk cost a retained session actually holds.
const (
	sessionOverheadBytes = 256
	eventOverheadBytes   = 64
	chunkRecBytes        = 24
)

func eventBytes(ev *Event) int64 {
	return int64(eventOverheadBytes + len(ev.Note))
}
