// Package features turns per-chunk traffic observations into the
// paper's model inputs: the 70-feature stall set (§4.1), the
// 210-feature representation set (§4.2), the Δsize×Δt switch-detection
// series (§4.3), and the labelling rules (RR, RQ, Var).
//
// Everything here is computed from information available for encrypted
// flows — the left column of Table 1. Ground truth never enters a
// feature vector.
package features

import (
	"sort"

	"vqoe/internal/weblog"
)

// ChunkObs is one media chunk download as the proxy sees it.
type ChunkObs struct {
	// Time is the chunk arrival time relative to the session's first
	// chunk ("chunk time", §3.1).
	Time float64
	// SizeKB is the object size in kilobytes.
	SizeKB float64
	// DurationSec is the transaction time.
	DurationSec float64

	RTTMin, RTTAvg, RTTMax float64 // seconds
	BDP                    float64 // bytes
	BIFAvg, BIFMax         float64 // bytes
	LossPct, RetransPct    float64
}

// FieldSet is a set of ChunkObs fields, one bit per field in
// declaration order. A flow store told which fields anything downstream
// reads (sessionizer.Config.Fields) buffers only those per open chunk;
// the others read zero in the sessions it closes.
type FieldSet uint16

const (
	FieldTime FieldSet = 1 << iota
	FieldSizeKB
	FieldDurationSec
	FieldRTTMin
	FieldRTTAvg
	FieldRTTMax
	FieldBDP
	FieldBIFAvg
	FieldBIFMax
	FieldLossPct
	FieldRetransPct

	// CoreFields are read whatever the models selected: the switch
	// detector's Δsize×Δt series, the flight timeline, throughput.
	CoreFields = FieldTime | FieldSizeKB | FieldDurationSec
	// AllFields is the dense layout.
	AllFields = FieldRetransPct<<1 - 1
)

// ThroughputKBps returns the chunk goodput in KB/s.
func (c ChunkObs) ThroughputKBps() float64 {
	if c.DurationSec <= 0 {
		return 0
	}
	return c.SizeKB / c.DurationSec
}

// SessionObs is the time-ordered chunk sequence of one session.
type SessionObs struct {
	Chunks []ChunkObs
}

// FromEntries assembles a SessionObs from a session's weblog entries,
// keeping only media chunk downloads (signalling carries no transport
// annotations worth modelling). Entries may be cleartext or encrypted —
// the observation uses only TLS-surviving fields. Chunk times are
// rebased to the first chunk.
func FromEntries(entries []weblog.Entry) SessionObs {
	var obs SessionObs
	for _, e := range entries {
		if !e.IsVideoHost() {
			continue
		}
		obs.Chunks = append(obs.Chunks, ChunkObs{
			Time:        e.Timestamp + e.TransactionSec,
			SizeKB:      float64(e.Bytes) / 1000,
			DurationSec: e.TransactionSec,
			RTTMin:      e.RTTMin,
			RTTAvg:      e.RTTAvg,
			RTTMax:      e.RTTMax,
			BDP:         e.BDP,
			BIFAvg:      e.BIFAvg,
			BIFMax:      e.BIFMax,
			LossPct:     e.LossPct,
			RetransPct:  e.RetransPct,
		})
	}
	finishChunks(obs.Chunks)
	return obs
}

// FromChunks assembles a SessionObs from already-extracted chunk
// observations in arrival order — the columnar flow table's hand-off,
// where chunk extraction happened entry by entry at ingest. The chunks
// are copied into buf (grown only when its capacity is exhausted) so
// the caller's slice stays untouched in arrival order, then sorted and
// rebased exactly like FromEntries: pushing the entries those chunks
// came from through FromEntries yields a bit-identical observation.
// The returned observation aliases buf.
func FromChunks(chunks []ChunkObs, buf []ChunkObs) SessionObs {
	if cap(buf) < len(chunks) {
		buf = make([]ChunkObs, len(chunks))
	} else {
		buf = buf[:len(chunks)]
	}
	copy(buf, chunks)
	finishChunks(buf)
	return SessionObs{Chunks: buf}
}

// finishChunks is the shared tail of observation assembly: arrival
// order becomes chunk-time order, and times are rebased to the first
// chunk ("chunk time", §3.1). Both construction paths run the same
// sort.Slice over the same comparator, so equal inputs produce equal
// permutations even among tied timestamps. Chunks that already arrive
// in non-decreasing chunk-time order — the live path's common case —
// skip the sort and the three allocations sort.Slice makes: on such
// input it is the identity (TestFinishChunksMatchesSortSlice), so
// out-of-order sessions keep their permutation and ordered ones theirs.
func finishChunks(chunks []ChunkObs) {
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Time < chunks[i-1].Time {
			sort.Slice(chunks, func(i, j int) bool {
				return chunks[i].Time < chunks[j].Time
			})
			break
		}
	}
	if len(chunks) > 0 {
		base := chunks[0].Time
		for i := range chunks {
			chunks[i].Time -= base
		}
	}
}

// Len returns the number of chunks.
func (s SessionObs) Len() int { return len(s.Chunks) }
