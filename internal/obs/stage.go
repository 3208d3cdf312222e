package obs

import "time"

// Stage names one timed section of the inference pipeline. The five
// stages cover the full path of one entry batch through the monitor:
// §5.2 session reconstruction, feature extraction, the two random
// forests, the §4.3 CUSUM switch detector, and the end-to-end ingest
// that wraps them all.
type Stage uint8

const (
	// StageSessionize is the incremental §5.2 flow-table update (one
	// observation per ingested entry batch).
	StageSessionize Stage = iota
	// StageFeaturize is feature extraction for closed sessions, one
	// observation per closed-session batch (as StageForest and
	// StageCUSUM): assembling each session's chunk-time-ordered
	// observation (features.FromChunks) and the summary-statistic
	// extraction that fills both models' projected vectors.
	StageFeaturize
	// StageForest is the two batched random-forest passes (stall +
	// representation models) over those vectors — tree walks and vote
	// confidences only.
	StageForest
	// StageCUSUM is the switch detector's CUSUM scoring over the same
	// closed-session batch.
	StageCUSUM
	// StageIngest is the end-to-end handling of one entry batch:
	// sessionize + featurize + forest + CUSUM + report emission. On a
	// wire connection's stage set it is one frame from read to handed
	// to the shard mailboxes, the wait for a full mailbox or for the
	// connection's feed window included.
	StageIngest
	// StageWireDecode is the binary wire protocol's frame decode (one
	// observation per frame, recorded per connection by the wire
	// listener rather than per engine shard). The listener decodes to
	// routed recs, so this includes identity resolution: the
	// per-connection cache lookups and, for a frame with misses, the
	// engine's Intern call.
	StageWireDecode

	// NumStages is the number of instrumented stages.
	NumStages = int(StageWireDecode) + 1
)

var stageNames = [NumStages]string{
	"sessionize", "featurize", "forest_predict", "cusum", "ingest",
	"wire_decode",
}

// String returns the stage's label value in the exposition.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every instrumented stage in exposition order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageSet is one owner's histograms, one per pipeline stage — each
// engine shard holds its own so the hot path never shares a cache line
// with another shard, and the exposition merges per-shard sets into
// labelled series. All methods are nil-safe: a nil *StageSet is the
// "observability off" mode and observes are no-ops, so call sites need
// no branches.
type StageSet struct {
	h [NumStages]Histogram
}

// NewStageSet returns an empty set.
func NewStageSet() *StageSet { return &StageSet{} }

// Observe records a duration (seconds) for one stage.
func (s *StageSet) Observe(st Stage, seconds float64) {
	if s == nil {
		return
	}
	s.h[st].Observe(seconds)
}

// ObserveSince records the elapsed wall time since start for one stage.
func (s *StageSet) ObserveSince(st Stage, start time.Time) {
	if s == nil {
		return
	}
	s.h[st].Observe(time.Since(start).Seconds())
}

// Snapshot copies every stage histogram.
func (s *StageSet) Snapshot() StageSetSnapshot {
	var out StageSetSnapshot
	if s == nil {
		return out
	}
	for i := range s.h {
		out[i] = s.h[i].Snapshot()
	}
	return out
}

// StageSetSnapshot holds one snapshot per stage, indexed by Stage.
type StageSetSnapshot [NumStages]HistogramSnapshot

// Merge adds another stage-set snapshot into this one.
func (s *StageSetSnapshot) Merge(o StageSetSnapshot) {
	for i := range s {
		s[i].Merge(o[i])
	}
}
