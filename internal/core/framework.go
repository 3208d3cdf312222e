package core

import (
	"fmt"
	"sync"
	"time"

	"vqoe/internal/features"
	"vqoe/internal/obs"
	"vqoe/internal/workload"
)

// Framework bundles the three detectors into the deployable unit the
// paper proposes: train on cleartext once, then report QoE impairments
// for every (encrypted) session observed at a single vantage point.
type Framework struct {
	Stall, Rep *Detector
	Switch     *SwitchDetector

	// sparse is the two-model session evaluator, built once from the
	// two selections on first use (a Framework literal leaves it unset)
	// and only read after that, by every caller at once.
	sparseOnce sync.Once
	sparse     *features.Sparse
}

// evaluator returns the framework's two-model session evaluator.
func (f *Framework) evaluator() *features.Sparse {
	f.sparseOnce.Do(func() { f.sparse = features.NewSparse(f.Stall.selIdx, f.Rep.selIdx) })
	return f.sparse
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
	stall, stallRep, err := Train(BuildStallDataset(stallCorpus), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("training stall model: %w", err)
	}
	rep, repRep, err := Train(BuildRepDataset(repCorpus), cfg)
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
// qoereport -save-stall and -save-rep write; LoadDetectorFile refuses a
// file trained on another schema than its slot's.
func LoadFramework(stallPath, repPath string) (*Framework, error) {
	stall, err := LoadDetectorFile(stallPath, features.StallFeatureNames())
	if err != nil {
		return nil, err
	}
	rep, err := LoadDetectorFile(repPath, features.RepFeatureNames())
	if err != nil {
		return nil, err
	}
	return &Framework{Stall: stall, Rep: rep, Switch: NewSwitchDetector()}, nil
}

// ServingFramework is how the live tools (qoeserve, qoewatch, qoepcap
// -analyze, examples/livehttp) get their models: loaded from both files
// when both paths are given, trained by trainServingFramework when
// neither is. One path alone is an error — a lone model file is never
// silently replaced by training.
func ServingFramework(stallPath, repPath string, trainN int, seed int64) (*Framework, error) {
	switch {
	case stallPath != "" && repPath != "":
		return LoadFramework(stallPath, repPath)
	case stallPath == "" && repPath == "":
		return trainServingFramework(trainN, seed)
	}
	return nil, fmt.Errorf("a stall and a representation model file go together: got stall %q, rep %q", stallPath, repPath)
}

// trainServingFramework is what the live tools do without model files:
// train on the traffic the engine serves — trainN encrypted adaptive
// sessions for the stall model, half as many for the representation
// model — so the quality monitor's baseline describes the live
// population rather than flagging a train/serve mismatch at once. seed
// draws the corpora, the balancing, the folds and the forests, as
// qoereport -seed does.
func trainServingFramework(trainN int, seed int64) (*Framework, error) {
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
	tcfg.Forest.Seed = seed
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

// Analyze assesses one session from its traffic observations alone:
// a batch of one through AnalyzeBatchInto, the loop the live engine
// runs.
func (f *Framework) Analyze(o features.SessionObs) Report {
	return f.AnalyzeBatchInto([]features.SessionObs{o}, nil, nil)[0]
}

// AnalyzeScratch carries the reusable buffers a long-lived caller (an
// engine shard) threads through AnalyzeBatchInto so the
// featurize→predict loop performs zero allocations per batch once the
// buffers have grown to the working-set size. The zero value is ready;
// a scratch is single-goroutine and serves one framework.
type AnalyzeScratch struct {
	// series holds the session evaluator's per-metric series buffers.
	series features.SeriesScratch

	stall, rep         PredictScratch
	stallConf, repConf []float64
	reports            []Report
	sw                 ScoreScratch
}

// Layout reports what AnalyzeBatchSince reads of a session with this
// framework's two selections (features.Sparse.Layout) — what a flow
// store feeding it has to keep (the switch detector's fields are among
// features.CoreFields).
func (f *Framework) Layout() features.Layout {
	return f.evaluator().Layout()
}

// AnalyzeBatchInto assesses many sessions at once, with stage timing
// and caller-owned buffers: AnalyzeBatchSince with the featurize stage
// starting now.
func (f *Framework) AnalyzeBatchInto(o []features.SessionObs, set *obs.StageSet, sc *AnalyzeScratch) []Report {
	return f.AnalyzeBatchSince(o, time.Now(), set, sc)
}

// AnalyzeBatchSince assesses many sessions at once, with stage timing
// and caller-owned buffers. Each forest scores the whole batch in one
// PredictBatchInto pass (a threshold scan on the serving models, ml's
// scan.go), which is how the live engine amortizes inference over
// the sessions a shard closes together; reports come back in input
// order and do not depend on the batch size. When set is
// non-nil, one StageFeaturize observation runs from t0 — when the
// caller began assembling o, so the engine's chunk ordering is inside
// it — to the end of the statistics pass, one StageForest observation
// covers the two tree passes, and one StageCUSUM observation the switch
// scoring. The returned reports alias sc and are valid until the next
// call with the same scratch (callers that retain them must copy, as
// the engine does when it wraps them in engine.Reports), as are the
// projected vectors Projected reads off it; a nil sc allocates a fresh
// one.
//
// Each session is featurized once: one evaluator built from both
// models' selections extracts every metric either model needs a single
// time and fills both projected layouts, then each forest runs over
// its filled vectors.
func (f *Framework) AnalyzeBatchSince(o []features.SessionObs, t0 time.Time, set *obs.StageSet, sc *AnalyzeScratch) []Report {
	if len(o) == 0 {
		return nil
	}
	if sc == nil {
		sc = new(AnalyzeScratch)
	}
	sparse := f.evaluator()
	stallRows := f.Stall.rows(&sc.stall, len(o))
	repRows := f.Rep.rows(&sc.rep, len(o))
	for i, so := range o {
		sparse.EvalBoth(so, stallRows[i], repRows[i], &sc.series)
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
