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
// the compaction pass over the chunks (float-only, one chunk-record
// append per video chunk), the header build, and ring bookkeeping —
// a few allocations and ~1.5µs for a 120-chunk session, paid only by
// the retained tail.
func BenchmarkRetain(b *testing.B) {
	a := benchAssessment(videoChunks(0, 120, 4))
	rec := New(Config{Shards: 1})
	sh := rec.Shard(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Retain(a, 2.5, ReasonStalled)
		if i%64 == 0 {
			sh.mu.Lock()
			sh.ring = sh.ring[:0]
			sh.bytes = 0
			sh.mu.Unlock()
		}
	}
}

// BenchmarkTimelineRender times the read-path materialization a
// drill-down pays: the chunk-record scan, gap synthesis, and the
// assess-time fold. This cost moved off the ingest path deliberately —
// it runs once per operator click, not once per retained session.
func BenchmarkTimelineRender(b *testing.B) {
	a := benchAssessment(videoChunks(0, 120, 4))
	sess := newSession(a, 2.5, ReasonStalled, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sess.timeline(nil)
	}
}
