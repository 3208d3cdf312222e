package main

import (
	"io"

	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/weblog"
)

// The replay loop's fixed settings.
const (
	// replayFlushEverySec is the capture-clock cadence at which
	// completed transactions are harvested from the meter and emitted.
	replayFlushEverySec = 2
	// replayIdleGapSec force-closes a transaction after this much flow
	// silence and bounds the meter's flow table.
	replayIdleGapSec = 10
	// replayBatchMax caps one emitted batch so a flush after a long
	// silence cannot hand the engine an unbounded slab.
	replayBatchMax = 512
)

// replayStats summarizes one replay run.
type replayStats struct {
	// Packets is the count of TCP/IPv4 packets metered.
	Packets int
	// Entries is the count of synthesized weblog entries emitted.
	Entries int
	// Batches is how many emit calls carried them.
	Batches int
	// SpanSec is the capture-clock span of the trace.
	SpanSec float64
}

// replayPcap streams a capture through the flow meter and hands emit
// the synthesized weblog entries in batches of at most batchMax, as
// transactions complete on the capture clock — the passive-probe
// pipeline (packet → transaction → entry) running incrementally instead
// of buffering the whole trace. A transaction is force-closed after
// idleGapSec of flow silence. The batch slice is reused between calls,
// so emit must not retain it: a Client's SendEntries copies.
func replayPcap(r *pcapio.Reader, emit func([]weblog.Entry), idleGapSec float64, batchMax int) (replayStats, error) {
	m := packet.NewMeter()
	var st replayStats
	batch := make([]weblog.Entry, 0, batchMax)

	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		st.Entries += len(batch)
		st.Batches++
		emit(batch)
		batch = batch[:0]
	}
	harvest := func(txns []packet.Transaction) {
		for i := range txns {
			batch = append(batch, txns[i].ToEntry())
			if len(batch) >= batchMax {
				flushBatch()
			}
		}
		flushBatch()
	}

	nextFlush := 0.0
	started := false
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		st.Packets++
		if !started {
			started = true
			nextFlush = p.Time + replayFlushEverySec
		}
		if p.Time > st.SpanSec {
			st.SpanSec = p.Time
		}
		m.Observe(p)
		if p.Time >= nextFlush {
			harvest(m.FlushIdle(p.Time, idleGapSec))
			nextFlush = p.Time + replayFlushEverySec
		}
	}
	harvest(m.Finish())
	return st, nil
}
