package packet

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"vqoe/internal/stats"
	"vqoe/internal/weblog"
)

// streamEntries builds a multi-flow, multi-subscriber entry stream to
// synthesize packets from.
func streamEntries() []weblog.Entry {
	var out []weblog.Entry
	for s := 0; s < 4; s++ {
		sub := string(rune('a' + s))
		for i := 0; i < 12; i++ {
			out = append(out, weblog.Entry{
				Timestamp:      float64(s) + float64(i)*3.5,
				Subscriber:     sub,
				Host:           "r1---sn-test.googlevideo.com",
				ServerIP:       "173.194.1.2",
				ServerPort:     443,
				Encrypted:      true,
				Bytes:          200000 + i*1000,
				TransactionSec: 1.5,
				RTTMin:         0.02, RTTAvg: 0.03, RTTMax: 0.05,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

// TestMeterStreamingEquivalence interleaves Observe with periodic
// harvests and checks their concatenation is one-shot metering element
// for element — the contract that lets long captures stream entries
// out in start order while being read, instead of buffering every
// transaction until Finish.
func TestMeterStreamingEquivalence(t *testing.T) {
	pkts := Synthesize(streamEntries(), stats.NewRand(3))

	batch := NewMeter()
	for _, p := range pkts {
		batch.Observe(p)
	}
	want := batch.Finish()

	stream := NewMeter()
	var got []Transaction
	early := 0
	for i, p := range pkts {
		stream.Observe(p)
		if i%50 == 49 {
			h := stream.FlushIdle(p.Time, 0)
			early += len(h)
			got = append(got, h...)
		}
	}
	got = append(got, stream.Finish()...)

	if early == 0 {
		t.Fatal("no harvest released a transaction before Finish")
	}
	if len(got) != len(want) {
		t.Fatalf("streaming harvested %d transactions, batch %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("transaction %d diverges:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// a harvest after Finish is empty, not a re-harvest
	if extra := stream.FlushIdle(1e9, 0); len(extra) != 0 {
		t.Errorf("post-Finish harvest returned %d transactions", len(extra))
	}
}

// TestMeterReleaseWaitsForOpenTransactions checks a harvest holds back
// a finished transaction while an older one is still open, and one
// that started at the latest packet's time, which a later packet with
// the same timestamp could still precede.
func TestMeterReleaseWaitsForOpenTransactions(t *testing.T) {
	a := FlowKey{Subscriber: "s", ServerIP: "10.0.0.1", ServerPort: 443, ClientPort: 40000}
	b := FlowKey{Subscriber: "s", ServerIP: "10.0.0.1", ServerPort: 443, ClientPort: 40001}
	m := NewMeter()
	m.Observe(Packet{Time: 0, Flow: a, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 0.1, Flow: a, Dir: Down, Flags: ACK, PayloadLen: 1460})
	m.Observe(Packet{Time: 1, Flow: b, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 1.1, Flow: b, Dir: Down, Flags: ACK, PayloadLen: 1460})
	m.Observe(Packet{Time: 1.2, Flow: b, Dir: Down, Flags: FIN | ACK})
	if got := m.FlushIdle(1.2, 0); len(got) != 0 {
		t.Fatalf("released %d transactions while the one from t=0 is open", len(got))
	}
	m.Observe(Packet{Time: 2, Flow: a, Dir: Down, Flags: FIN | ACK})
	got := m.FlushIdle(2, 0)
	if len(got) != 2 || got[0].Flow != a || got[1].Flow != b {
		t.Fatalf("released %+v, want a's then b's transaction", got)
	}

	// b requests and closes at t=3; a packet at t=3 may still open a
	// transaction on a, whose flow key sorts first
	m.Observe(Packet{Time: 3, Flow: b, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 3, Flow: b, Dir: Down, Flags: ACK | FIN, PayloadLen: 1460})
	if got := m.FlushIdle(3, 0); len(got) != 0 {
		t.Fatalf("released a transaction that started at the latest packet: %+v", got)
	}
	m.Observe(Packet{Time: 3, Flow: a, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 3.1, Flow: a, Dir: Down, Flags: ACK, PayloadLen: 1460})
	got = m.Finish()
	if len(got) != 2 || got[0].Flow != a || got[1].Flow != b {
		t.Fatalf("Finish gave %+v, want a's then b's transaction", got)
	}
}

// FuzzMeterReleaseOrder meters a synthesized trace with harvests at
// arbitrary packets and FINs on arbitrary packets, under an idle gap
// longer than the trace: the concatenated harvests must be Finish's
// one-shot output element for element, and Start must never decrease
// across the stream. A non-zero grid floors packet times to multiples
// of grid centiseconds, so requests, data and FINs share timestamps
// the way a coarse capture clock makes them.
func FuzzMeterReleaseOrder(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), []byte{0, 1, 2, 3})
	f.Add(int64(7), uint8(40), uint8(0), []byte{1})
	f.Add(int64(3), uint8(30), uint8(10), []byte{3, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, n, grid uint8, ops []byte) {
		if len(ops) == 0 {
			ops = []byte{0}
		}
		// start times on a coarse grid so flows tie
		r := stats.NewRand(seed)
		hosts := []string{"r1.googlevideo.com", "r2.googlevideo.com", "i.ytimg.com"}
		var es []weblog.Entry
		for i := 0; i < int(n); i++ {
			h := r.Intn(len(hosts))
			es = append(es, weblog.Entry{
				Timestamp:      float64(r.Intn(int(n)+1)) * 0.5,
				Subscriber:     "s",
				Host:           hosts[h],
				ServerIP:       "10.1.0." + string(rune('1'+h)),
				ServerPort:     443,
				Bytes:          1 + r.Intn(40000),
				TransactionSec: 0.1 + r.Float64(),
				RTTAvg:         0.02 + 0.05*r.Float64(),
			})
		}
		sort.SliceStable(es, func(i, j int) bool { return es[i].Timestamp < es[j].Timestamp })
		pkts := Synthesize(es, r)
		for i := range pkts {
			if ops[i%len(ops)]&2 != 0 {
				pkts[i].Flags |= FIN
			}
			if grid > 0 {
				step := float64(grid) / 100
				pkts[i].Time = math.Floor(pkts[i].Time/step) * step
			}
		}
		gap := 1.0
		if len(pkts) > 0 {
			gap += pkts[len(pkts)-1].Time
		}

		batch := NewMeter()
		for _, p := range pkts {
			batch.Observe(p)
		}
		want := batch.Finish()

		stream := NewMeter()
		var got []Transaction
		for i, p := range pkts {
			stream.Observe(p)
			if ops[i%len(ops)]&1 != 0 {
				got = append(got, stream.FlushIdle(p.Time, gap)...)
			}
		}
		got = append(got, stream.Finish()...)

		if len(got) != len(want) {
			t.Fatalf("harvests gave %d transactions, Finish %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("transaction %d diverges:\n got %+v\nwant %+v", i, got[i], want[i])
			}
			if i > 0 && got[i].Start < got[i-1].Start {
				t.Fatalf("transaction %d starts at %v, after one at %v", i, got[i].Start, got[i-1].Start)
			}
		}
	})
}

// TestMeterFinClosesTransaction checks connection teardown ends the
// in-flight transaction without waiting for Finish.
func TestMeterFinClosesTransaction(t *testing.T) {
	flow := FlowKey{Subscriber: "s", ServerIP: "10.0.0.1", ServerPort: 443, ClientPort: 40000}
	m := NewMeter()
	m.Observe(Packet{Time: 0, Flow: flow, Dir: Up, Flags: SYN})
	m.Observe(Packet{Time: 0.01, Flow: flow, Dir: Down, Flags: SYN | ACK})
	m.Observe(Packet{Time: 0.02, Flow: flow, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 0.05, Flow: flow, Dir: Down, Flags: ACK, Seq: 0, PayloadLen: 1460})
	m.Observe(Packet{Time: 0.08, Flow: flow, Dir: Up, Flags: ACK, AckNo: 1460})
	if got := m.FlushIdle(0.08, 0); len(got) != 0 {
		t.Fatalf("transaction closed before any boundary: %+v", got)
	}
	m.Observe(Packet{Time: 0.1, Flow: flow, Dir: Down, Flags: FIN | ACK})
	got := m.FlushIdle(0.1, 0)
	if len(got) != 1 {
		t.Fatalf("FIN closed %d transactions, want 1", len(got))
	}
	if got[0].Bytes != 1460 {
		t.Errorf("transaction bytes %d", got[0].Bytes)
	}
}

// TestMeterIdleEviction checks FlushIdle force-closes quiet
// transactions, evicts dead flows (bounding state by the live flow
// count), and that a flow waking after eviction re-seeds its cursors:
// mid-stream sequence numbers must not read as retransmissions or as
// megabytes in flight.
func TestMeterIdleEviction(t *testing.T) {
	flow := FlowKey{Subscriber: "s", ServerIP: "10.0.0.1", ServerPort: 443, ClientPort: 40000}
	m := NewMeter()
	m.Observe(Packet{Time: 0, Flow: flow, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 0.05, Flow: flow, Dir: Down, Flags: ACK, Seq: 0, PayloadLen: 1460})
	m.Observe(Packet{Time: 0.08, Flow: flow, Dir: Up, Flags: ACK, AckNo: 1460})

	// still fresh: nothing closes, nothing evicted
	if got := m.FlushIdle(5, 10); len(got) != 0 {
		t.Fatalf("fresh flow harvested: %+v", got)
	}
	if len(m.flows) != 1 {
		t.Fatal("fresh flow evicted")
	}

	// idle past the gap: the open transaction force-closes
	got := m.FlushIdle(20, 10)
	if len(got) != 1 || got[0].Bytes != 1460 {
		t.Fatalf("idle close harvested %+v", got)
	}
	// idle past two gaps: the flow itself is evicted
	m.FlushIdle(40, 10)
	if len(m.flows) != 0 {
		t.Fatalf("%d flows survive double-gap eviction", len(m.flows))
	}

	// the flow wakes mid-stream at a high sequence number
	m.Observe(Packet{Time: 50, Flow: flow, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 50.05, Flow: flow, Dir: Down, Flags: ACK, Seq: 5_000_000, PayloadLen: 1460})
	m.Observe(Packet{Time: 50.06, Flow: flow, Dir: Down, Flags: ACK, Seq: 5_001_460, PayloadLen: 1460})
	m.Observe(Packet{Time: 50.1, Flow: flow, Dir: Down, Flags: FIN})
	got = m.Finish()
	if len(got) != 1 {
		t.Fatalf("woken flow produced %d transactions", len(got))
	}
	if got[0].RetransPct != 0 {
		t.Errorf("woken flow read %.1f%% retransmissions from fresh sequences", got[0].RetransPct)
	}
	if got[0].Bytes != 2920 {
		t.Errorf("woken flow counted %d bytes, want 2920", got[0].Bytes)
	}
	if got[0].BIFMax > 4096 {
		t.Errorf("bytes-in-flight %.0f measured against sequence zero instead of the re-seeded cursor", got[0].BIFMax)
	}
}

// TestMeterEvictionKeepsHarvestable checks evicting a flow keeps the
// transaction its eviction closed.
func TestMeterEvictionKeepsHarvestable(t *testing.T) {
	flow := FlowKey{Subscriber: "s", ServerIP: "10.0.0.1", ServerPort: 443, ClientPort: 40000}
	m := NewMeter()
	m.Observe(Packet{Time: 0, Flow: flow, Dir: Up, Flags: ACK | PSH, PayloadLen: 100})
	m.Observe(Packet{Time: 0.05, Flow: flow, Dir: Down, Flags: ACK, Seq: 0, PayloadLen: 1460})
	m.Observe(Packet{Time: 0.1, Flow: flow, Dir: Down, Flags: FIN})

	// far past double the idle gap in one step: the close and the
	// eviction race inside one FlushIdle — the transaction must win
	got := m.FlushIdle(1000, 10)
	if len(got) != 1 {
		t.Fatalf("eviction dropped a closed transaction: %d harvested", len(got))
	}
}
