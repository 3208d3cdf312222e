package flight

import (
	"fmt"
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

// BenchmarkObserveOutcomeMiss times a wrong label for a session the
// recorder does not hold — most of them, since retention keeps a
// sampled tail — at the default budget: four shards full of 55-chunk
// sessions, each shard's lookup made under its lock.
func BenchmarkObserveOutcomeMiss(b *testing.B) {
	rec := New(Config{Shards: 4})
	a := benchAssessment(videoChunks(0, 55, 4))
	subs := make([]string, 512)
	for i := range subs {
		subs[i] = fmt.Sprintf("sub-%d", i)
	}
	for i := 0; rec.Metrics().Evicted < 4*64; i++ {
		a.Subscriber, a.Start = subs[i%len(subs)], float64(i)
		rec.Shard(i%4).Retain(a, 2.5, ReasonStalled)
	}
	rec.ObserveOutcome("never-retained", -1, 59, "stall", "labeled wrong") // builds the indexes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ObserveOutcome("never-retained", float64(i), float64(i)+60, "stall", "labeled wrong")
	}
	b.ReportMetric(float64(rec.Metrics().Resident), "sessions")
}
