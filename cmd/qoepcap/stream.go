package main

import (
	"io"

	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/weblog"
)

// The capture loop's fixed settings.
const (
	// streamFlushEverySec is the capture-clock cadence at which the
	// meter is harvested.
	streamFlushEverySec = 2
	// streamIdleGapSec force-closes a transaction after this much flow
	// silence and bounds the meter's flow table.
	streamIdleGapSec = 10
	// streamBatchMax caps one emitted batch so a harvest after a long
	// silence cannot hand the sink an unbounded slab.
	streamBatchMax = 512
)

// streamStats summarizes one pass over a capture.
type streamStats struct {
	// Packets is the count of TCP/IPv4 packets metered.
	Packets int
	// Entries is the count of synthesized weblog entries emitted.
	Entries int
	// Batches is how many emit calls carried them.
	Batches int
	// SpanSec is the capture-clock span of the trace.
	SpanSec float64
}

// streamCapture is the one loop both -analyze and -replay run: it
// streams a capture through the flow meter and hands emit the
// synthesized weblog entries in batches of at most batchMax, harvested
// on the capture clock — the passive-probe pipeline (packet →
// transaction → entry) running incrementally instead of buffering the
// whole trace, so memory is bounded by the open flows. Entries arrive
// in start order (the meter's release rule); a transaction is
// force-closed after idleGapSec of flow silence. The first error emit
// returns stops the loop and is returned. The batch slice is reused
// between calls, so emit must not retain it: a Client's SendEntries
// copies.
func streamCapture(r *pcapio.Reader, emit func([]weblog.Entry) error, idleGapSec float64, batchMax int) (streamStats, error) {
	m := packet.NewMeter()
	var st streamStats
	batch := make([]weblog.Entry, 0, batchMax)

	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		st.Entries += len(batch)
		st.Batches++
		err := emit(batch)
		batch = batch[:0]
		return err
	}
	harvest := func(txns []packet.Transaction) error {
		for i := range txns {
			batch = append(batch, txns[i].ToEntry())
			if len(batch) >= batchMax {
				if err := flushBatch(); err != nil {
					return err
				}
			}
		}
		return flushBatch()
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
			nextFlush = p.Time + streamFlushEverySec
		}
		if p.Time > st.SpanSec {
			st.SpanSec = p.Time
		}
		m.Observe(p)
		if p.Time >= nextFlush {
			if err := harvest(m.FlushIdle(p.Time, idleGapSec)); err != nil {
				return st, err
			}
			nextFlush = p.Time + streamFlushEverySec
		}
	}
	return st, harvest(m.Finish())
}
