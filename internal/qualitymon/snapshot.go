package qualitymon

import "fmt"

// Model status strings reported in snapshots.
const (
	StatusOK         = "ok"
	StatusDegraded   = "degraded"
	StatusNoBaseline = "no baseline"
)

// FeatureDrift is one selected feature's serve-vs-training shift.
type FeatureDrift struct {
	Name    string  `json:"name"`
	PSI     float64 `json:"psi"`
	Drifted bool    `json:"drifted"`
}

// ModelSnapshot is one classifier's point-in-time health view, the
// JSON shape of /debug/quality's models array.
type ModelSnapshot struct {
	Name        string `json:"model"`
	Status      string `json:"status"`
	HasBaseline bool   `json:"has_baseline"`
	Samples     int64  `json:"samples"`

	Classes   []string  `json:"classes"`
	Predicted []float64 `json:"predicted"` // observed class proportions
	Counts    []int64   `json:"counts"`    // observed class counts
	Priors    []float64 `json:"priors,omitempty"`
	PriorPSI  float64   `json:"prior_psi"`

	Features      []FeatureDrift `json:"features,omitempty"`
	MaxPSI        float64        `json:"max_psi"`
	MaxPSIFeature string         `json:"max_psi_feature,omitempty"`

	MeanConfidence float64 `json:"mean_confidence"`
	ECE            float64 `json:"ece"`
	BaselineECE    float64 `json:"baseline_ece"`

	Labeled          int64     `json:"labeled"`
	LabelsOutOfRange int64     `json:"labels_out_of_range"` // matched, but a class index outside the schema
	OnlineAccuracy   float64   `json:"online_accuracy"`
	BaselineAccuracy float64   `json:"baseline_accuracy"`
	AccuracyDrop     float64   `json:"accuracy_drop"`
	Confusion        [][]int64 `json:"confusion,omitempty"` // [actual][predicted]

	Degraded bool     `json:"degraded"`
	Reasons  []string `json:"reasons,omitempty"`
	// Exemplars links a degraded model to retained flight-recorder
	// sessions ("subscriber/start" IDs: low-confidence predictions and
	// labeled-wrong outcomes, worst MOS first). Snapshot leaves it
	// empty; the /debug/quality handler fills it for degraded models.
	Exemplars []string `json:"exemplars,omitempty"`
}

// SwitchSnapshot summarizes the CUSUM switch detector's serve-time
// score distribution (no trained baseline exists for it) and the
// assessed sessions' media chunk counts. Counts are per bin, aligned
// with the edges (upper bounds) plus one overflow bin.
type SwitchSnapshot struct {
	Sessions    int64     `json:"sessions"`
	Varying     int64     `json:"varying"`
	VaryingRate float64   `json:"varying_rate"`
	MeanScore   float64   `json:"mean_score"`
	ScoreSum    float64   `json:"score_sum"`
	ScoreEdges  []float64 `json:"score_edges"`
	ScoreCounts []int64   `json:"score_counts"`
	ChunkSum    int64     `json:"chunk_sum"`
	ChunkEdges  []float64 `json:"chunk_edges"`
	ChunkCounts []int64   `json:"chunk_counts"`
}

// LabelStats counts the ground-truth side-channel's traffic.
type LabelStats struct {
	Total   int64 `json:"total"`
	Matched int64 `json:"matched"`
	// LabelsEvicted and PredsEvicted count the unmatched labels and
	// predictions dropped when a stripe buffer overflowed.
	LabelsEvicted int64 `json:"labels_evicted"`
	PredsEvicted  int64 `json:"preds_evicted"`
}

// Snapshot is the full /debug/quality JSON document.
type Snapshot struct {
	Models     []ModelSnapshot `json:"models"`
	Switch     SwitchSnapshot  `json:"switch"`
	Labels     LabelStats      `json:"labels"`
	Thresholds Thresholds      `json:"thresholds"`
	Degraded   bool            `json:"degraded"`
}

// Snapshot assembles the current health view. Safe to call at any
// time; the prediction-side counters may race with concurrent observes
// and then give a slightly torn but per-cell valid view, while each
// model's label tally is copied whole under its lock. A nil monitor
// yields a zero snapshot with default thresholds.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{Thresholds: DefaultThresholds()}
	}
	s := Snapshot{
		Models: []ModelSnapshot{
			m.Stall.snapshot(m.th),
			m.Rep.snapshot(m.th),
		},
		Switch: m.switchSnapshot(),
		Labels: LabelStats{
			Total:         m.labelsTotal.Load(),
			Matched:       m.labelsMatched.Load(),
			LabelsEvicted: m.labelsEvicted.Load(),
			PredsEvicted:  m.predsEvicted.Load(),
		},
		Thresholds: m.th,
	}
	for i := range s.Models {
		s.Degraded = s.Degraded || s.Models[i].Degraded
	}
	return s
}

func (m *Monitor) switchSnapshot() SwitchSnapshot {
	ss := SwitchSnapshot{
		ScoreEdges:  append([]float64(nil), switchScoreEdges...),
		ScoreCounts: make([]int64, len(switchScoreEdges)+1),
		ChunkEdges:  append([]float64(nil), chunkEdges...),
		ChunkCounts: make([]int64, len(chunkEdges)+1),
	}
	for i := range m.sessions {
		sh := &m.sessions[i]
		sh.scores.AddInto(ss.ScoreCounts)
		sh.chunks.AddInto(ss.ChunkCounts)
		ss.Varying += sh.varying.Load()
		ss.ScoreSum += sh.scoreSum.Load()
		ss.ChunkSum += sh.chunkSum.Load()
	}
	for _, c := range ss.ScoreCounts {
		ss.Sessions += c
	}
	if ss.Sessions > 0 {
		ss.VaryingRate = float64(ss.Varying) / float64(ss.Sessions)
		ss.MeanScore = ss.ScoreSum / float64(ss.Sessions)
	}
	return ss
}

// snapshot merges the per-shard accumulators, compares against the
// baseline, and applies the degradation thresholds.
func (mm *ModelMonitor) snapshot(th Thresholds) ModelSnapshot {
	if mm == nil {
		return ModelSnapshot{Status: StatusNoBaseline}
	}
	nc := len(mm.labels.Classes)
	ms := ModelSnapshot{
		Name:        mm.name,
		HasBaseline: mm.base != nil,
		Classes:     append([]string(nil), mm.labels.Classes...),
		Counts:      make([]int64, nc),
	}

	// merge prediction-side per-shard counters
	var confSum float64
	var featCounts []int64
	if mm.base != nil {
		featCounts = make([]int64, len(mm.base.Features)*mm.bins)
	}
	for i := range mm.shards {
		sh := &mm.shards[i]
		sh.pred.AddInto(ms.Counts)
		confSum += sh.confSum.Load()
		if featCounts != nil {
			sh.feat.AddInto(featCounts)
		}
	}
	for _, c := range ms.Counts {
		ms.Samples += c
	}
	ms.Predicted = Proportions(ms.Counts)
	if ms.Samples > 0 {
		ms.MeanConfidence = confSum / float64(ms.Samples)
	}

	// label-driven state: one consistent copy of the tally
	mm.labelMu.Lock()
	ms.Confusion = make([][]int64, nc)
	for a, row := range mm.labels.Matrix {
		ms.Confusion[a] = append([]int64(nil), row...)
	}
	ms.Labeled = mm.labels.Total()
	ms.LabelsOutOfRange = mm.labels.OutOfRange
	ms.OnlineAccuracy = mm.labels.Accuracy()
	ms.ECE = mm.labels.ECE()
	mm.labelMu.Unlock()

	// baseline comparisons + degradation verdict
	if mm.base == nil {
		ms.Status = StatusNoBaseline
		return ms
	}
	ms.Priors = append([]float64(nil), mm.base.Priors...)
	ms.BaselineAccuracy = mm.base.Calibration.Accuracy()
	ms.BaselineECE = mm.base.Calibration.ECE()
	ms.Features = make([]FeatureDrift, len(mm.base.Features))
	enough := ms.Samples >= minSamples
	for f, name := range mm.base.Features {
		psi := PSI(mm.base.Expected[f], Proportions(featCounts[f*mm.bins:(f+1)*mm.bins]))
		drifted := enough && psi > th.PSI
		ms.Features[f] = FeatureDrift{Name: name, PSI: psi, Drifted: drifted}
		if psi > ms.MaxPSI || ms.MaxPSIFeature == "" {
			ms.MaxPSI, ms.MaxPSIFeature = psi, name
		}
		if drifted {
			ms.Reasons = append(ms.Reasons,
				fmt.Sprintf("feature drift: %s PSI %.3f > %.2f", name, psi, th.PSI))
		}
	}
	ms.PriorPSI = PSI(ms.Priors, ms.Predicted)
	if enough && ms.PriorPSI > th.PSI {
		ms.Reasons = append(ms.Reasons,
			fmt.Sprintf("prediction-prior shift: PSI %.3f > %.2f", ms.PriorPSI, th.PSI))
	}
	if ms.Labeled >= minLabels {
		ms.AccuracyDrop = ms.BaselineAccuracy - ms.OnlineAccuracy
		if ms.AccuracyDrop > th.AccuracyDrop {
			ms.Reasons = append(ms.Reasons,
				fmt.Sprintf("online accuracy %.1f%% is %.1f points below baseline %.1f%%",
					100*ms.OnlineAccuracy, 100*ms.AccuracyDrop, 100*ms.BaselineAccuracy))
		}
	}
	if len(ms.Reasons) > 0 {
		ms.Status = StatusDegraded
		ms.Degraded = true
	} else {
		ms.Status = StatusOK
	}
	return ms
}
