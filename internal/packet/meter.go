package packet

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"vqoe/internal/weblog"
)

// Transaction is one HTTP(S) request/response pair as recovered from
// packet headers alone.
type Transaction struct {
	Flow     FlowKey
	Start    float64 // request segment time
	Duration float64 // request → last response byte
	Bytes    int     // unique response payload bytes

	RTTMin, RTTAvg, RTTMax float64
	BIFAvg, BIFMax         float64
	// RetransPct is the share of response segments seen twice. A
	// passive probe cannot count losses it never sees, so loss is
	// estimated by the retransmission rate.
	RetransPct float64

	segments int
	retrans  int
	rttSum   float64
	rttN     int
	bifSum   float64
	bifN     int
	lastData float64
}

// Meter reconstructs transactions from a packet stream. Feed packets
// in time order with Observe; a transaction closes as soon as its flow
// signals the end (a new request, FIN, or RST), when FlushIdle finds
// its flow silent, or at Finish.
//
// The meter owns the output order. Closed transactions wait in one
// pending list and leave it in (Start, flow key) order: FlushIdle
// releases those that started before every transaction still open and
// before the latest packet (a later packet may share its timestamp and
// open a transaction that sorts first), and Finish releases the rest.
// No transaction released later can therefore sort ahead of one
// already out: the harvests of a run, concatenated, are Finish's
// one-shot output element for element, and the pending list holds only
// the finished transactions that started no earlier than the oldest
// one still open. qoepcap meters a capture for -analyze and for
// -replay through this one streaming surface.
type Meter struct {
	flows map[string]*flowState
	// pending holds closed, unreleased transactions: the sorted
	// remainder of the last release, then closes in close order
	pending []Transaction
	// now is the time of the latest packet observed
	now float64
}

type flowState struct {
	// handshake tracking
	synTime   float64
	rttHS     float64
	hsPending bool
	// down-direction reassembly state
	highestEnd uint32
	lastAck    uint32
	// holes are sequence ranges skipped by out-of-order arrivals; a
	// later frame landing inside a hole is a fill, not a retransmission
	holes []seqRange
	// outstanding (unacked) down segments for RTT sampling
	inflight []sentSeg
	current  *Transaction
	// lastSeen is the latest packet time on the flow in either
	// direction — the idle clock FlushIdle evicts against.
	lastSeen float64
	// seeded marks that the down-direction cursors have been anchored
	// to observed traffic. A flow first seen mid-stream (capture began
	// after the handshake, or the flow woke after idle eviction) would
	// otherwise measure bytes-in-flight against sequence zero.
	seeded bool
}

// seqRange is a half-open [lo, hi) sequence interval.
type seqRange struct{ lo, hi uint32 }

// maxHoles bounds reassembly state per flow; beyond it the oldest
// holes are abandoned (their frames, if they ever arrive, count as
// retransmissions — a safe, non-inflating fallback).
const maxHoles = 64

// fillHoles removes [lo, hi) from the hole list and returns how many
// bytes of it lay inside holes.
func (fs *flowState) fillHoles(lo, hi uint32) int {
	filled := 0
	var kept []seqRange
	for _, h := range fs.holes {
		ol, oh := maxU32(h.lo, lo), minU32(h.hi, hi)
		if ol >= oh {
			kept = append(kept, h)
			continue
		}
		filled += int(oh - ol)
		if h.lo < ol {
			kept = append(kept, seqRange{h.lo, ol})
		}
		if oh < h.hi {
			kept = append(kept, seqRange{oh, h.hi})
		}
	}
	fs.holes = kept
	return filled
}

type sentSeg struct {
	end  uint32
	time float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{flows: map[string]*flowState{}}
}

// Observe processes one packet.
func (m *Meter) Observe(p Packet) {
	key := p.Flow.String()
	fs := m.flows[key]
	if fs == nil {
		fs = &flowState{}
		m.flows[key] = fs
	}
	fs.lastSeen = p.Time
	m.now = p.Time

	switch {
	case p.Dir == Up && p.Flags.Has(SYN):
		fs.synTime = p.Time
		fs.hsPending = true
	case p.Dir == Down && p.Flags.Has(SYN|ACK) && fs.hsPending:
		fs.rttHS = p.Time - fs.synTime
		fs.hsPending = false
	case p.Dir == Up && p.PayloadLen > 0:
		// a request starts a new transaction
		m.close(fs)
		fs.current = &Transaction{Flow: p.Flow, Start: p.Time}
		if fs.rttHS > 0 {
			fs.current.observeRTT(fs.rttHS)
		}
	case p.Dir == Down && p.PayloadLen > 0:
		fs.observeData(p)
	case p.Dir == Up && p.Flags.Has(ACK):
		fs.observeAck(p)
	}
	// connection teardown ends the transaction in flight: without this
	// a long capture's last transaction per flow — and on streaming
	// replay every transaction of a closed flow — would sit open until
	// Finish
	if p.Flags.Has(FIN) || p.Flags.Has(RST) {
		m.close(fs)
	}
}

func (fs *flowState) observeData(p Packet) {
	if !fs.seeded {
		fs.seeded = true
		fs.highestEnd = p.Seq
		if fs.lastAck == 0 {
			fs.lastAck = p.Seq
		}
	}
	t := fs.current
	if t == nil {
		// response without a visible request (trace tail): open an
		// anonymous transaction so bytes aren't lost
		t = &Transaction{Flow: p.Flow, Start: p.Time}
		fs.current = t
	}
	t.segments++
	switch {
	case p.Seq >= fs.highestEnd:
		// in-order (or a jump ahead, leaving a hole behind)
		if p.Seq > fs.highestEnd && len(fs.holes) < maxHoles {
			fs.holes = append(fs.holes, seqRange{fs.highestEnd, p.Seq})
		}
		t.Bytes += p.PayloadLen
		fs.highestEnd = p.End()
		fs.inflight = append(fs.inflight, sentSeg{end: p.End(), time: p.Time})
	default:
		// below the highest sequence: a hole fill (late out-of-order
		// frame) or a genuine retransmission
		if filled := fs.fillHoles(p.Seq, p.End()); filled > 0 {
			t.Bytes += filled
		} else {
			t.retrans++
		}
	}
	t.lastData = p.Time
	// bytes in flight: delivered but not yet acknowledged
	bif := float64(fs.highestEnd - fs.lastAck)
	t.bifSum += bif
	t.bifN++
	if bif > t.BIFMax {
		t.BIFMax = bif
	}
}

func (fs *flowState) observeAck(p Packet) {
	if p.AckNo <= fs.lastAck {
		return
	}
	fs.lastAck = p.AckNo
	// RTT sample: pair the cumulative ACK with the OLDEST segment it
	// covers — the first segment of the acknowledged flight left one
	// round-trip before the ACK returned
	covered := -1
	for i, s := range fs.inflight {
		if s.end <= p.AckNo {
			covered = i
		} else {
			break
		}
	}
	if covered >= 0 {
		if t := fs.current; t != nil {
			t.observeRTT(p.Time - fs.inflight[0].time)
		}
		fs.inflight = fs.inflight[covered+1:]
	}
}

func (t *Transaction) observeRTT(rtt float64) {
	if rtt <= 0 {
		return
	}
	if t.rttN == 0 || rtt < t.RTTMin {
		t.RTTMin = rtt
	}
	if rtt > t.RTTMax {
		t.RTTMax = rtt
	}
	t.rttSum += rtt
	t.rttN++
}

// close finalizes a flow's in-flight transaction onto the pending
// list.
func (m *Meter) close(fs *flowState) {
	t := fs.current
	if t == nil {
		return
	}
	fs.current = nil
	if t.Bytes == 0 && t.segments == 0 {
		return
	}
	t.Duration = t.lastData - t.Start
	if t.Duration < 0 {
		t.Duration = 0
	}
	if t.rttN > 0 {
		t.RTTAvg = t.rttSum / float64(t.rttN)
	}
	if t.bifN > 0 {
		t.BIFAvg = t.bifSum / float64(t.bifN)
	}
	if t.segments > 0 {
		t.RetransPct = 100 * float64(t.retrans) / float64(t.segments)
	}
	m.pending = append(m.pending, *t)
}

// release hands out, in (Start, flow key) order, the pending
// transactions that started before bound. The sort is stable, so two
// transactions of one flow with one start time leave in close order.
func (m *Meter) release(bound float64) []Transaction {
	slices.SortStableFunc(m.pending, func(a, b Transaction) int {
		return cmp.Or(
			cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.Flow.Subscriber, b.Flow.Subscriber),
			cmp.Compare(a.Flow.ServerIP, b.Flow.ServerIP),
			cmp.Compare(a.Flow.ServerPort, b.Flow.ServerPort),
			cmp.Compare(a.Flow.ClientPort, b.Flow.ClientPort),
			cmp.Compare(a.Flow.Host, b.Flow.Host),
		)
	})
	n := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].Start >= bound })
	if n == 0 {
		return nil
	}
	out := slices.Clone(m.pending[:n])
	m.pending = append(m.pending[:0], m.pending[n:]...)
	return out
}

// FlushIdle harvests for long-running replay. Transactions whose flow
// has been silent since before now-idleGap are force-closed first (a
// probe cannot tell a stalled response tail from a finished one,
// exactly the §5.2 idle-gap argument), and flows silent for two idle
// gaps are evicted entirely so the flow table stays bounded by the
// live flow count rather than the capture length; idleGap 0 closes
// nothing. It then releases what the Meter's ordering rule allows,
// leaving in-flight transactions and the reassembly state of live
// flows (holes, inflight segments, handshake RTT) in place. A flow that
// wakes after eviction restarts with fresh reassembly state: its first
// frames count as in-order delivery, never as retransmissions.
func (m *Meter) FlushIdle(now, idleGap float64) []Transaction {
	bound := m.now
	for key, fs := range m.flows {
		if idleGap > 0 && fs.lastSeen < now-idleGap {
			m.close(fs)
			if fs.lastSeen < now-2*idleGap {
				delete(m.flows, key)
			}
			continue
		}
		if fs.current != nil && fs.current.Start < bound {
			bound = fs.current.Start
		}
	}
	return m.release(bound)
}

// Finish closes all open transactions and returns everything not yet
// released, in (Start, flow key) order.
func (m *Meter) Finish() []Transaction {
	for _, fs := range m.flows {
		m.close(fs)
	}
	return m.release(math.Inf(1))
}

// ToEntry converts a metered transaction back into a weblog entry (the
// encrypted view: a packet probe never sees URIs). This is the bridge
// that lets the whole detection pipeline run from raw packet headers.
func (t Transaction) ToEntry() weblog.Entry {
	bdp := 0.0
	if t.Duration > 0 {
		bdp = float64(t.Bytes) / t.Duration * t.RTTAvg
	}
	return weblog.Entry{
		Timestamp:      t.Start,
		Subscriber:     t.Flow.Subscriber,
		Host:           t.Flow.Host,
		Encrypted:      t.Flow.ServerPort == 443,
		ServerIP:       t.Flow.ServerIP,
		ServerPort:     t.Flow.ServerPort,
		Bytes:          t.Bytes,
		TransactionSec: t.Duration,
		RTTMin:         t.RTTMin,
		RTTAvg:         t.RTTAvg,
		RTTMax:         t.RTTMax,
		BDP:            bdp,
		BIFAvg:         t.BIFAvg,
		BIFMax:         t.BIFMax,
		LossPct:        t.RetransPct, // passive loss estimate
		RetransPct:     t.RetransPct,
	}
}

// MeterEntries is the full probe path: packets in, weblog entries out.
func MeterEntries(packets []Packet) []weblog.Entry {
	m := NewMeter()
	for _, p := range packets {
		m.Observe(p)
	}
	txns := m.Finish()
	out := make([]weblog.Entry, len(txns))
	for i, t := range txns {
		out[i] = t.ToEntry()
	}
	return out
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
