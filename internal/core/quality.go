package core

import "vqoe/internal/qualitymon"

// NewQualityMonitor builds the serve-time quality monitor for a
// trained framework: both forests' baselines (nil-tolerant — a model
// loaded from a pre-baseline file reports "no baseline" instead of
// drift) with shards accumulator sets and the given degradation
// thresholds (zero fields → defaults).
func NewQualityMonitor(fw *Framework, shards int, th qualitymon.Thresholds) *qualitymon.Monitor {
	if fw == nil || shards <= 0 {
		return nil
	}
	return qualitymon.New(qualitymon.Config{
		Shards:     shards,
		Thresholds: th,
		Stall: qualitymon.ModelConfig{
			Name:     "stall",
			Classes:  fw.Stall.Forest.Classes,
			Baseline: fw.Stall.Forest.Baseline,
		},
		Rep: qualitymon.ModelConfig{
			Name:     "rep",
			Classes:  fw.Rep.Forest.Classes,
			Baseline: fw.Rep.Forest.Baseline,
		},
	})
}
