package flight

import (
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
)

func benchAssessment(chunks []features.ChunkObs) Assessment {
	rep := core.Report{StallConf: 0.9, RepConf: 0.9, Chunks: len(chunks)}
	rep.Stall = 2
	return Assessment{
		Subscriber: "bench-sub", Start: 0, End: 480, Report: rep,
		Chunks: chunks, RawEntries: len(chunks),
		Cohort: "us-east/mobile/50",
	}
}

// BenchmarkRetain times the ingest-path cost of keeping one session:
// the compaction pass over the chunks (float-only, three store writes
// per video chunk), the header and the store and exemplar bookkeeping,
// paid only by the retained tail. The budget is a few hundred sessions,
// so nearly every iteration runs at it: 0 allocs/op.
func BenchmarkRetain(b *testing.B) {
	a := benchAssessment(videoChunks(0, 120, 4))
	rec := New(Config{Shards: 1, MaxBytes: 1 << 20})
	sh := rec.Shard(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Retain(a, 2.5, ReasonStalled)
	}
}

// BenchmarkTimelineRender times the read-path materialization a
// drill-down pays once it has its copy: the chunk-record scan, gap
// synthesis, and the assess-time fold. This cost moved off the ingest
// path deliberately — it runs once per operator click, not once per
// retained session.
func BenchmarkTimelineRender(b *testing.B) {
	a := benchAssessment(videoChunks(0, 120, 4))
	rec := New(Config{Shards: 1})
	rec.Shard(0).Retain(a, 2.5, ReasonStalled)
	sess := rec.find(a.Subscriber, a.Start)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sess.timeline()
	}
}
