package core

import "vqoe/internal/qualitymon"

// QualityHook routes one caller's predictions into the shared
// model-quality monitor. Each engine shard holds its own hook so
// Observe writes land in that shard's lock-free accumulator set.
type QualityHook struct {
	Monitor *qualitymon.Monitor
	Shard   int
}

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
