package pcapio

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"vqoe/internal/packet"
	"vqoe/internal/stats"
	"vqoe/internal/weblog"
)

func sampleTrace(t testing.TB) ([]packet.Packet, weblog.Entry) {
	t.Helper()
	e := weblog.Entry{
		Timestamp:      3,
		Subscriber:     "sub",
		Host:           "r1---sn-aaaa.googlevideo.com",
		ServerIP:       "173.194.7.9",
		ServerPort:     443,
		Encrypted:      true,
		Bytes:          400_000,
		TransactionSec: 2,
		RTTAvg:         0.08,
		RetransPct:     2,
	}
	return packet.Synthesize([]weblog.Entry{e}, stats.NewRand(1)), e
}

func base() time.Time {
	return time.Date(2016, 2, 1, 12, 0, 0, 0, time.UTC)
}

func TestRoundTrip(t *testing.T) {
	pkts, _ := sampleTrace(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, base())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(pkts); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r.ResolveHost("173.194.7.9", "r1---sn-aaaa.googlevideo.com")
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, wrote %d", len(got), len(pkts))
	}
	for i := range pkts {
		want, have := pkts[i], got[i]
		if have.Dir != want.Dir {
			t.Fatalf("pkt %d dir %v, want %v", i, have.Dir, want.Dir)
		}
		if have.PayloadLen != want.PayloadLen {
			t.Fatalf("pkt %d payload %d, want %d", i, have.PayloadLen, want.PayloadLen)
		}
		if have.Seq != want.Seq || have.AckNo != want.AckNo {
			t.Fatalf("pkt %d seq/ack mismatch", i)
		}
		if have.Flags != want.Flags {
			t.Fatalf("pkt %d flags %v, want %v", i, have.Flags, want.Flags)
		}
		// times survive at microsecond resolution, rebased to t0
		if math.Abs((have.Time+pkts[0].Time)-want.Time) > 0.001 {
			t.Fatalf("pkt %d time %v, want %v", i, have.Time+pkts[0].Time, want.Time)
		}
		if have.Flow.Host != want.Flow.Host {
			t.Fatalf("pkt %d host %q, want %q", i, have.Flow.Host, want.Flow.Host)
		}
		if have.Flow.ServerPort != want.Flow.ServerPort || have.Flow.ClientPort != want.Flow.ClientPort {
			t.Fatalf("pkt %d ports mismatch", i)
		}
	}
}

func TestMeterWorksOnReadBackTrace(t *testing.T) {
	pkts, e := sampleTrace(t)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, base())
	if err := w.WriteAll(pkts); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	r.ResolveHost(e.ServerIP, e.Host)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	entries := packet.MeterEntries(got)
	if len(entries) != 1 {
		t.Fatalf("metered %d transactions", len(entries))
	}
	if entries[0].Bytes != e.Bytes {
		t.Errorf("bytes %d, want %d", entries[0].Bytes, e.Bytes)
	}
	if entries[0].Host != e.Host {
		t.Errorf("host %q", entries[0].Host)
	}
}

func TestHeaderOnlyCaptureIsCompact(t *testing.T) {
	pkts, e := sampleTrace(t)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, base())
	if err := w.WriteAll(pkts); err != nil {
		t.Fatal(err)
	}
	// 70 bytes per record (16 header + 54 frame); payload must not be
	// in the file
	maxExpected := 24 + len(pkts)*(16+54)
	if buf.Len() > maxExpected {
		t.Errorf("capture is %d bytes, expected ≤ %d (payload leaked?)", buf.Len(), maxExpected)
	}
	if buf.Len() < 24+len(pkts)*50 {
		t.Errorf("capture suspiciously small: %d bytes", buf.Len())
	}
	_ = e
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewBufferString("not a pcap file at all....")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := NewReader(bytes.NewBuffer(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestReaderSkipsTruncatedTail(t *testing.T) {
	pkts, _ := sampleTrace(t)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, base())
	if err := w.WriteAll(pkts[:3]); err != nil {
		t.Fatal(err)
	}
	// chop mid-record
	data := buf.Bytes()[:buf.Len()-10]
	r, err := NewReader(bytes.NewBuffer(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			break // truncated frame error is acceptable
		}
		n++
	}
	if n != 2 {
		t.Errorf("read %d full packets before truncation, want 2", n)
	}
}

func TestTCPFlagRoundTrip(t *testing.T) {
	for _, f := range []packet.Flags{
		packet.SYN, packet.SYN | packet.ACK, packet.ACK,
		packet.PSH | packet.ACK, packet.FIN | packet.ACK, packet.RST,
	} {
		if got := decodeFlags(tcpFlagBits(f)); got != f {
			t.Errorf("flags %v round-trip to %v", f, got)
		}
	}
}

// capture is a Writer-produced capture of the first n sample packets.
func capture(t testing.TB, n int) []byte {
	t.Helper()
	pkts, _ := sampleTrace(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, base())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(pkts[:n]); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstIHL is where the first frame's IPv4 version/IHL byte lies: after
// the global header, one record header and the Ethernet header.
const firstIHL = 24 + 16 + ethHeaderLen

// TestReaderSkipsLyingHeaderLength: the IPv4 header length is the
// packet's own claim. One byte of a good capture patched to IHL 15 puts
// the TCP header past the end of a 54-byte frame (the reader used to
// panic slicing it); IHL 3 puts it inside the IP header. Either frame
// is skipped like a non-TCP one and the packets after it still read.
func TestReaderSkipsLyingHeaderLength(t *testing.T) {
	for _, ihl := range []byte{0x4f, 0x43, 0x40} {
		data := capture(t, 3)
		data[firstIHL] = ihl
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != 2 {
			t.Errorf("version/IHL %#x: read %d packets, %v; want the 2 after the patched frame", ihl, len(got), err)
		}
	}
}

// FuzzReadPcap: whatever the bytes, NewReader and Next return packets or
// an error and never panic, and the reader makes progress.
func FuzzReadPcap(f *testing.F) {
	good := capture(f, 4)
	lying := append([]byte(nil), good...)
	lying[firstIHL] = 0x4f
	f.Add(good)
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for n := 0; ; n++ {
			if _, err := r.Next(); err != nil {
				return
			}
			if n > len(data)/16 {
				t.Fatalf("%d packets out of %d bytes", n, len(data))
			}
		}
	})
}
