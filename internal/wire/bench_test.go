package wire

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"vqoe/internal/weblog"
)

// benchEntries builds n entries over a bounded vocabulary — the live
// shape the intern table is designed for: many entries, few distinct
// subscribers/hosts/addresses.
func benchEntries(n int) []weblog.Entry {
	out := make([]weblog.Entry, n)
	for i := range out {
		out[i] = weblog.Entry{
			Timestamp:      float64(i) * 0.05,
			Subscriber:     fmt.Sprintf("sub-%02d", i%16),
			Host:           fmt.Sprintf("r%d---sn-bench.googlevideo.com", i%8),
			ServerIP:       fmt.Sprintf("173.194.55.%d", i%8),
			ServerPort:     443,
			Encrypted:      true,
			Bytes:          100000 + i*37,
			TransactionSec: 1.2,
			RTTMin:         0.018, RTTAvg: 0.031, RTTMax: 0.090,
			BDP: 48000, BIFAvg: 30000, BIFMax: 65535,
			LossPct: 0.4, RetransPct: 0.4,
		}
	}
	return out
}

// benchFrame encodes n entries into a single validated frame and
// returns its parsed header and payload.
func benchFrame(tb testing.TB, n int) (Header, []byte) {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, benchEntries(n), nil); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	h, err := parseHeader(raw[:HeaderLen])
	if err != nil {
		tb.Fatal(err)
	}
	if HeaderLen+h.Len != len(raw) {
		tb.Fatalf("fixture spilled into %d frames; shrink n", 1+len(raw)/(HeaderLen+h.Len))
	}
	return h, raw[HeaderLen:]
}

// BenchmarkFrameDecode is the serve-side hot path in isolation: one
// warmed decoder replaying a 512-entry frame, through each emitter.
// allocs/op must read 0 on both — the zero-copy contract the replay and
// listener paths rely on (TestDecodeFrameSteadyStateZeroAlloc and
// TestDecodeRecsSteadyStateZeroAlloc enforce it as tests, CI gates the
// benchmark's reading).
func BenchmarkFrameDecode(b *testing.B) {
	const n = 512
	h, payload := benchFrame(b, n)
	b.Run("entries", func(b *testing.B) {
		dec := NewDecoder()
		if _, _, err := dec.DecodeFrame(h, payload); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries, _, err := dec.DecodeFrame(h, payload)
			if err != nil || len(entries) != n {
				b.Fatalf("decode: %d entries, %v", len(entries), err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "entries/s")
	})
	b.Run("recs", func(b *testing.B) {
		rd := newRecDecoder(newStubSink(2))
		if _, _, _, err := rd.DecodeFrame(h, payload); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recs, _, _, err := rd.DecodeFrame(h, payload)
			if err != nil || len(recs) != n {
				b.Fatalf("decode: %d recs, %v", len(recs), err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "entries/s")
	})
}

// TestDecodeFrameSteadyStateZeroAlloc pins the acceptance criterion
// behind BenchmarkFrameDecode's allocs/op: once the scratch slices
// have grown and the intern table holds the stream's vocabulary,
// decoding a frame allocates nothing per entry.
func TestDecodeFrameSteadyStateZeroAlloc(t *testing.T) {
	h, payload := benchFrame(t, 512)
	dec := NewDecoder()
	if _, _, err := dec.DecodeFrame(h, payload); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := dec.DecodeFrame(h, payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state decode allocates %.1f times per frame, want 0", avg)
	}
}

// BenchmarkFrameEncode measures the client-side cost of building
// frames: 512 entries appended and flushed to a discarded stream.
func BenchmarkFrameEncode(b *testing.B) {
	entries := benchEntries(512)
	enc := NewEncoder(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range entries {
			if err := enc.AppendEntry(&entries[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(entries))/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkServerThroughput runs the full transport loop — client
// encode, kernel socket, frame read, decode, handler dispatch — with a
// counting no-op handler, so entries/s is the listener subsystem's
// ceiling before any engine work. The final Sync is inside the timed
// region: the number reflects entries actually delivered, not bytes
// buffered in flight.
func BenchmarkServerThroughput(b *testing.B) {
	for _, transport := range []string{"tcp", "unix"} {
		b.Run(transport, func(b *testing.B) {
			entries := benchEntries(512)
			var delivered atomic.Int64
			srv := NewServer(Config{Handler: Handler{
				Entries: func(es []weblog.Entry) { delivered.Add(int64(len(es))) },
			}})
			addr := "127.0.0.1:0"
			if transport == "unix" {
				addr = "unix:" + b.TempDir() + "/bench.sock"
			}
			ln, err := Listen(addr)
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()
			dial := ln.Addr().String()
			if transport == "unix" {
				dial = "unix:" + dial
			}
			c, err := Dial(dial)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.SendEntries(entries); err != nil {
					b.Fatal(err)
				}
			}
			ack, err := c.Sync()
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			want := int64(b.N * len(entries))
			if ack.Entries != want || delivered.Load() != want {
				b.Fatalf("acked %d, handler saw %d, sent %d", ack.Entries, delivered.Load(), want)
			}
			b.ReportMetric(float64(want)/b.Elapsed().Seconds(), "entries/s")
			c.Close()
			srv.Close()
		})
	}
}
