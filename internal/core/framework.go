package core

import (
	"fmt"
	"slices"
	"time"

	"vqoe/internal/features"
	"vqoe/internal/obs"
	"vqoe/internal/workload"
)

// Framework bundles the three detectors into the deployable unit the
// paper proposes: train on cleartext once, then report QoE impairments
// for every (encrypted) session observed at a single vantage point.
type Framework struct {
	Stall  *StallDetector
	Rep    *RepresentationDetector
	Switch *SwitchDetector
}

// FrameworkReport carries the training diagnostics of both learned
// models.
type FrameworkReport struct {
	Stall *TrainReport
	Rep   *TrainReport
}

// TrainFramework trains all three detectors on a cleartext corpus. The
// representation model trains on the corpus's adaptive subset; if that
// subset is too small (the cleartext corpus is 97% progressive), pass
// a dedicated HAS corpus as repCorpus — the paper likewise restricts
// "the development of the average representation and the switch
// detection to the videos that made use of adaptive streaming" (§3.1).
func TrainFramework(stallCorpus, repCorpus *workload.Corpus, cfg TrainConfig) (*Framework, *FrameworkReport, error) {
	if repCorpus == nil {
		repCorpus = stallCorpus
	}
	stall, stallRep, err := TrainStall(stallCorpus, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("training stall model: %w", err)
	}
	rep, repRep, err := TrainRepresentation(repCorpus, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("training representation model: %w", err)
	}
	fw := &Framework{
		Stall:  stall,
		Rep:    rep,
		Switch: NewSwitchDetector(),
	}
	return fw, &FrameworkReport{Stall: stallRep, Rep: repRep}, nil
}

// LoadFramework assembles the deployable unit from the two model files
// qoetrain -save-stall and -save-rep write. Each detector must have
// been trained on the schema its slot featurizes sessions into —
// swapped or foreign files are an error, not a misprediction.
func LoadFramework(stallPath, repPath string) (*Framework, error) {
	stall, err := LoadDetectorFile(stallPath)
	if err != nil {
		return nil, err
	}
	rep, err := LoadDetectorFile(repPath)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(stall.full, features.StallFeatureNames()) {
		return nil, fmt.Errorf("%s: not a stall model (feature schema differs)", stallPath)
	}
	if !slices.Equal(rep.full, features.RepFeatureNames()) {
		return nil, fmt.Errorf("%s: not a representation model (feature schema differs)", repPath)
	}
	return &Framework{
		Stall:  &StallDetector{Detector: *stall},
		Rep:    &RepresentationDetector{Detector: *rep},
		Switch: NewSwitchDetector(),
	}, nil
}

// TrainServingFramework is what the live tools do without model files:
// train on the traffic the engine serves — trainN encrypted adaptive
// sessions for the stall model, half as many for the representation
// model — so the quality monitor's baseline describes the live
// population rather than flagging a train/serve mismatch at once.
func TrainServingFramework(trainN int, seed int64) (*Framework, error) {
	stallCfg := workload.DefaultConfig(trainN)
	stallCfg.AdaptiveFraction = 1
	stallCfg.Encrypted = true
	stallCfg.Seed = seed
	hasCfg := workload.DefaultConfig(trainN / 2)
	hasCfg.AdaptiveFraction = 1
	hasCfg.Encrypted = true
	hasCfg.Seed = seed + 1
	tcfg := DefaultTrainConfig()
	tcfg.CVFolds = 3
	tcfg.Forest.Trees = 30
	fw, _, err := TrainFramework(workload.Generate(stallCfg), workload.Generate(hasCfg), tcfg)
	return fw, err
}

// Report is the per-session QoE assessment the framework produces for
// an operator dashboard.
type Report struct {
	Stall          features.StallLabel
	Representation features.RepLabel
	// StallConf and RepConf are each forest's top-vote confidence for
	// its prediction (winning class's fraction of the tree votes).
	StallConf      float64
	RepConf        float64
	SwitchVariance bool
	SwitchScore    float64
	Chunks         int
}

// Analyze assesses one session from its traffic observations alone —
// the paper's §4 detectors applied one session at a time, and the
// reference the batched live path (AnalyzeBatchQuality) is tested
// against.
func (f *Framework) Analyze(o features.SessionObs) Report {
	var r Report
	r.Stall, r.StallConf = f.Stall.PredictConf(o)
	r.Representation, r.RepConf = f.Rep.PredictConf(o)
	r.SwitchScore = f.Switch.Score(o)
	r.SwitchVariance = r.SwitchScore > f.Switch.Threshold
	r.Chunks = o.Len()
	return r
}

// AnalyzeScratch carries the reusable buffers a long-lived caller (an
// engine shard) threads through AnalyzeBatchInto so the
// featurize→predict loop performs zero allocations per batch once the
// buffers have grown to the working-set size. The zero value is ready;
// a scratch is single-goroutine and serves one framework.
type AnalyzeScratch struct {
	// sparse is the two-model session evaluator, built on first use
	// from the framework's two selections. Living in the scratch (per
	// shard) rather than on the shared framework keeps its construction
	// race-free without a lock on the predict path. series holds its
	// per-metric series buffers.
	sparse *features.Sparse
	series features.SeriesScratch

	stall, rep         PredictScratch
	stallConf, repConf []float64
	reports            []Report
	sw                 ScoreScratch
}

// ChunkFields reports which per-chunk fields AnalyzeBatchQuality reads
// with this framework's two selections — what a flow store feeding it
// has to keep (the switch detector's are among features.CoreFields).
func (f *Framework) ChunkFields() features.FieldSet {
	return features.NewSparse(f.Stall.selIdx, f.Rep.selIdx).Fields()
}

// AnalyzeBatchInto assesses many sessions at once, with stage timing
// and caller-owned buffers. The two forests run in tree-major batch
// mode (each tree traverses the whole batch while its nodes are
// cache-hot), which is how the live engine amortizes inference over
// the sessions a shard closes together; reports come back in input
// order and are identical to per-session Analyze calls. When set is
// non-nil, one StageFeaturize observation covers the batch's
// summary-statistic extraction, one StageForest observation the two
// tree passes, and one StageCUSUM observation the switch scoring. The
// returned reports alias sc and are valid until the next call with the
// same scratch (callers that retain them must copy, as the engine does
// when it wraps them in engine.Reports); a nil sc allocates a fresh
// one.
func (f *Framework) AnalyzeBatchInto(o []features.SessionObs, set *obs.StageSet, sc *AnalyzeScratch) []Report {
	return f.AnalyzeBatchQuality(o, time.Now(), set, sc, nil)
}

// AnalyzeBatchQuality is AnalyzeBatchInto with the model-quality
// monitor attached: each session's projected feature vectors,
// predicted classes, and vote confidences are fed into the hook's
// per-shard accumulators, and the switch score into its score
// histogram. Reports are identical to AnalyzeBatchInto's (the hook
// only observes). A nil hook (or hook monitor) skips all of it. The
// StageFeaturize observation runs from t0 — when the caller began
// assembling o, so the engine's chunk ordering is inside it — to the
// end of the statistics pass.
//
// Each session is featurized once: one evaluator built from both
// models' selections extracts every metric either model needs a single
// time and fills both projected layouts, then each forest runs over
// its filled vectors.
func (f *Framework) AnalyzeBatchQuality(o []features.SessionObs, t0 time.Time, set *obs.StageSet, sc *AnalyzeScratch, qh *QualityHook) []Report {
	if len(o) == 0 {
		return nil
	}
	if sc == nil {
		sc = new(AnalyzeScratch)
	}
	if qh != nil && qh.Monitor == nil {
		qh = nil
	}
	if sc.sparse == nil {
		sc.sparse = features.NewSparse(f.Stall.selIdx, f.Rep.selIdx)
	}
	stallRows := f.Stall.rows(&sc.stall, len(o))
	repRows := f.Rep.rows(&sc.rep, len(o))
	for i, so := range o {
		sc.sparse.EvalBoth(so, stallRows[i], repRows[i], &sc.series)
	}
	if set != nil {
		set.ObserveSince(obs.StageFeaturize, t0)
		t0 = time.Now()
	}
	var stalls, reps []int
	stalls, sc.stallConf = f.Stall.predictRows(&sc.stall, sc.stallConf)
	reps, sc.repConf = f.Rep.predictRows(&sc.rep, sc.repConf)
	if set != nil {
		set.ObserveSince(obs.StageForest, t0)
		t0 = time.Now()
	}
	sc.reports = grow(sc.reports, len(o))
	out := sc.reports
	for i, so := range o {
		score := f.Switch.ScoreInto(so, &sc.sw)
		out[i] = Report{
			Stall:          features.StallLabel(stalls[i]),
			Representation: features.RepLabel(reps[i]),
			StallConf:      sc.stallConf[i],
			RepConf:        sc.repConf[i],
			SwitchVariance: score > f.Switch.Threshold,
			SwitchScore:    score,
			Chunks:         so.Len(),
		}
		if qh != nil {
			// the rows are each model's projected (baseline-order)
			// feature vector for session i
			qh.Monitor.Stall.Observe(qh.Shard, stallRows[i], stalls[i], sc.stallConf[i])
			qh.Monitor.Rep.Observe(qh.Shard, repRows[i], reps[i], sc.repConf[i])
			qh.Monitor.ObserveSwitch(qh.Shard, score, out[i].SwitchVariance)
		}
	}
	set.ObserveSince(obs.StageCUSUM, t0)
	return out
}

// String renders a one-line summary.
func (r Report) String() string {
	sw := "steady"
	if r.SwitchVariance {
		sw = "variable"
	}
	return fmt.Sprintf("stalling=%s quality=%s representation=%s (score %.0f, %d chunks)",
		r.Stall, r.Representation, sw, r.SwitchScore, r.Chunks)
}
