package wire

import (
	"io"

	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/weblog"
)

// ReplayOptions tunes the pcap→entry replay loop.
type ReplayOptions struct {
	// FlushEverySec is the capture-clock cadence at which completed
	// transactions are harvested from the meter and emitted (default
	// 2s). Smaller values lower replay latency; larger ones grow the
	// emitted batches.
	FlushEverySec float64
	// IdleGapSec force-closes a transaction after this much flow
	// silence and bounds the meter's flow table (default 10s).
	IdleGapSec float64
	// BatchMax caps one emitted batch (default 512 entries) so a
	// flush after a long silence cannot hand the engine an unbounded
	// slab.
	BatchMax int
}

func (o ReplayOptions) withDefaults() ReplayOptions {
	if o.FlushEverySec <= 0 {
		o.FlushEverySec = 2
	}
	if o.IdleGapSec <= 0 {
		o.IdleGapSec = 10
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 512
	}
	return o
}

// ReplayStats summarizes one replay run.
type ReplayStats struct {
	// Packets is the count of TCP/IPv4 packets metered.
	Packets int
	// Entries is the count of synthesized weblog entries emitted.
	Entries int
	// Batches is how many emit calls carried them.
	Batches int
	// SpanSec is the capture-clock span of the trace.
	SpanSec float64
}

// ReplayPcap streams a capture through the flow meter and hands emit
// the synthesized weblog entries in batches, as transactions complete
// on the capture clock — the passive-probe pipeline (packet →
// transaction → entry) running incrementally instead of buffering the
// whole trace. The batch slice is reused between calls, so emit must not
// retain it: the engine's Feed and a Client's SendEntries both copy.
func ReplayPcap(r *pcapio.Reader, emit func([]weblog.Entry), opt ReplayOptions) (ReplayStats, error) {
	opt = opt.withDefaults()
	m := packet.NewMeter()
	var st ReplayStats
	batch := make([]weblog.Entry, 0, opt.BatchMax)

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
			if len(batch) >= opt.BatchMax {
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
			nextFlush = p.Time + opt.FlushEverySec
		}
		if p.Time > st.SpanSec {
			st.SpanSec = p.Time
		}
		m.Observe(p)
		if p.Time >= nextFlush {
			harvest(m.FlushIdle(p.Time, opt.IdleGapSec))
			nextFlush = p.Time + opt.FlushEverySec
		}
	}
	harvest(m.Finish())
	return st, nil
}
