package flight

import "vqoe/internal/core"

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

// timeline materializes a copied-out session's event view from its
// retained raw material: chunk events from the compacted records
// (capped at MaxEvents when they were kept, overflow pre-counted),
// gap synthesis for stalled sessions, the assess-time fold — feature
// summary, both verdicts, switch score, MOS, cohort — then any delayed
// label events. Attribution of the verdict events is the renderer's job
// (see Recorder.attribute); the timeline itself stays pointer-light.
func (s *replay) timeline() []Event {
	evs := make([]Event, 0, s.kept+maxGapEvents+6+len(s.labels))

	// stalled sessions get the largest inter-chunk silences marked as
	// gap events; pick them in a first float-only pass over the chunk
	// records so the event loop below can emit every Event exactly
	// once, in place — no post-hoc insertion ever rewrites the slice
	var gaps gapSet
	if s.reasons&ReasonStalled != 0 {
		gaps = s.pickGaps()
	}

	for i := 0; i < s.kept; i++ {
		ts, dur, kb := s.chunk(i)
		ev := Event{TS: ts, Kind: EvChunk, V1: kb, V2: dur}
		if dur > 0 {
			ev.V3 = kb / dur
		}
		evs = append(evs, ev)
		// the gap a chunk's arrival ended renders right after it, at the
		// same timestamp — where a stable TS sort would land it
		if d := gaps.at(i); d > 0 {
			evs = append(evs, Event{TS: ev.TS, Kind: EvGap, V1: d})
		}
	}

	feat := Event{TS: s.end, Kind: EvFeatures, V1: float64(s.chunkCount), V2: s.totalKB}
	if s.totalSec > 0 {
		feat.V3 = s.totalKB / s.totalSec
	}
	evs = append(evs, feat)
	evs = append(evs,
		Event{TS: s.end, Kind: EvStall, V1: s.report.StallConf, Note: s.stall()},
		Event{TS: s.end, Kind: EvRep, V1: s.report.RepConf, Note: s.rep()},
		Event{TS: s.end, Kind: EvSwitch, V1: s.report.SwitchScore, V2: b2f(s.report.SwitchVariance)},
		Event{TS: s.end, Kind: EvMOS, V1: s.mos, Note: s.verbal()},
	)
	if s.cohort != "" {
		evs = append(evs, Event{TS: s.end, Kind: EvCohort, Note: s.cohort})
	}
	return append(evs, s.labels...)
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
func (s *replay) pickGaps() gapSet {
	var g gapSet
	var prev float64
	for k := 0; k < s.kept; k++ {
		ts, _, _ := s.chunk(k)
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
