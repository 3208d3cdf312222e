package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
)

// FuzzFrameStream drives the full serve-side read path — FrameReader
// over a byte stream, DecodeFrame on every frame — with arbitrary
// input. The invariants under fuzz are exactly the package contract:
// no panic, no over-allocation (payload and string bounds hold), and
// every malformed stream surfaces as a clean error rather than
// garbage records. Every frame also goes through the rec emitter (over
// a map-backed resolver), which must take the same accept/reject
// decision with the same error class and, on accept, emit the same
// records field for field. Seed corpus lives in
// testdata/fuzz/FuzzFrameStream/.
func FuzzFrameStream(f *testing.F) {
	// valid single-frame stream
	var buf bytes.Buffer
	_ = EncodeBatch(&buf,
		[]weblog.Entry{{Subscriber: "s", Host: "h.googlevideo.com", ServerIP: "10.0.0.1",
			ServerPort: 443, Encrypted: true, Bytes: 4096, Timestamp: 1, RTTAvg: 0.02}},
		[]qualitymon.Label{{Subscriber: "s", Start: 1, End: 2, AvailableAt: 3, Stall: 1, Rep: 2}})
	f.Add(buf.Bytes())
	// two frames back to back
	two := append(append([]byte(nil), buf.Bytes()...), buf.Bytes()...)
	f.Add(two)
	// empty ack-request frame (bare header)
	var ackBuf bytes.Buffer
	_ = NewEncoder(&ackBuf).Flush(FlagAckRequest)
	f.Add(ackBuf.Bytes())
	// ack frame
	var srvBuf bytes.Buffer
	se := NewEncoder(&srvBuf)
	_ = se.appendAck(10, 2)
	_ = se.Flush(FlagAck)
	f.Add(srvBuf.Bytes())
	// truncated frame
	f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	// corrupt CRC
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[12] ^= 0xff
	f.Add(corrupt)
	// unknown record kind in an otherwise consistent frame
	f.Add(rawFrame(1, []byte{0x7f}))
	// hostile string length
	f.Add(rawFrame(1, binary.AppendUvarint([]byte{recEntry}, 1<<40)))
	// hostile payload length in the header
	big := append([]byte(nil), buf.Bytes()[:HeaderLen]...)
	binary.LittleEndian.PutUint32(big[8:], 1<<31-1)
	f.Add(big)
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		dec := NewDecoder()
		sink := newStubSink(3)
		rd := newRecDecoder(sink, internMax)
		for {
			h, payload, err := fr.Next()
			if err != nil {
				if err != io.EOF && !isWireError(err) {
					t.Fatalf("non-protocol error from reader: %v", err)
				}
				return
			}
			if h.Len > MaxPayload || len(payload) > MaxPayload {
				t.Fatalf("payload bound breached: %d", len(payload))
			}
			entries, labels, err := dec.DecodeFrame(h, payload)
			recs, shardOf, rlabels, rerr := rd.DecodeFrame(h, payload)
			if wireClass(err) != wireClass(rerr) || (err == nil) != (rerr == nil) {
				t.Fatalf("emitters disagree: entries %v, recs %v", err, rerr)
			}
			if err != nil {
				// a framing error poisons the stream; the server closes here
				return
			}
			if err := sameRecords(sink, entries, labels, recs, shardOf, rlabels); err != nil {
				t.Fatalf("rec emitter diverges: %v", err)
			}
			if len(entries)+len(labels) > h.Records {
				t.Fatalf("decoded %d records from a %d-record frame",
					len(entries)+len(labels), h.Records)
			}
			for i := range entries {
				if len(entries[i].Subscriber) > MaxString || len(entries[i].Host) > MaxString ||
					len(entries[i].URI) > MaxString || len(entries[i].ServerIP) > MaxString {
					t.Fatal("string bound breached")
				}
				if entries[i].ServerPort > 65535 || entries[i].ServerPort < 0 {
					t.Fatalf("port %d out of range", entries[i].ServerPort)
				}
			}
		}
	})
}

func isWireError(err error) bool {
	for _, e := range []error{ErrMagic, ErrVersion, ErrTruncated, ErrOversize, ErrCRC, ErrRecord} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}
