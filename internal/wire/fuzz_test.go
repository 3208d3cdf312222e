package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"testing/iotest"

	"vqoe/internal/engine"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// FuzzFrameStream drives the full serve-side read path — FrameReader
// over a byte stream, DecodeFrame on every frame — with arbitrary
// input. The invariants under fuzz are exactly the package contract:
// no panic, no over-allocation (payload and string bounds hold), and
// every malformed stream surfaces as a clean error rather than
// garbage records. The stream is also read through short reads — one
// byte at a time, and in chunks whose sizes the input's own bytes pick —
// so frames straddle the reader's buffer end, move to its front and grow
// it: every way of reading must give the same frames and the same end.
// Every frame also goes through the rec emitter (over a map-backed
// resolver), which must take the same accept/reject decision with the
// same error class and, on accept, emit the same records field for
// field. Seed corpus lives in testdata/fuzz/FuzzFrameStream/.
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
		frames, end := readFrames(t, bytes.NewReader(data))
		for name, r := range map[string]io.Reader{
			"one byte": iotest.OneByteReader(bytes.NewReader(data)),
			"chunks":   &chunkReader{sizes: data, rest: data},
		} {
			got, gotEnd := readFrames(t, r)
			if len(got) != len(frames) || (gotEnd == io.EOF) != (end == io.EOF) || wireClass(gotEnd) != wireClass(end) {
				t.Fatalf("%s: %d frames ending in %v; whole reads give %d ending in %v", name, len(got), gotEnd, len(frames), end)
			}
			for i := range got {
				if got[i].h != frames[i].h || !bytes.Equal(got[i].payload, frames[i].payload) {
					t.Fatalf("%s: frame %d differs", name, i)
				}
			}
		}
		dec := NewDecoder()
		sink := newStubSink(3)
		rd := newRecDecoder(sink)
		for _, fr := range frames {
			h, payload := fr.h, fr.payload
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
			if err := sameRecords(sink.identify, entries, labels, recs, shardOf, rlabels); err != nil {
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

// frame is one frame as a FrameReader returned it, its payload copied.
type frame struct {
	h       Header
	payload []byte
}

// readFrames reads r to its end and returns every frame and the error
// that ended it, which must be io.EOF or a protocol error.
func readFrames(t *testing.T, r io.Reader) ([]frame, error) {
	fr := NewFrameReader(r)
	var frames []frame
	for {
		h, payload, err := fr.Next()
		if err != nil {
			if err != io.EOF && !isWireError(err) {
				t.Fatalf("non-protocol error from reader: %v", err)
			}
			return frames, err
		}
		frames = append(frames, frame{h, append([]byte(nil), payload...)})
	}
}

// chunkReader reads rest in chunks of 1 to 64 bytes, the size of each
// the next byte of sizes picks (cycling).
type chunkReader struct {
	sizes, rest []byte
	n           int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	size := 1 + int(c.sizes[c.n%len(c.sizes)])%64
	c.n++
	n := copy(p, c.rest[:min(size, len(c.rest))])
	c.rest = c.rest[n:]
	return n, nil
}

// FuzzRecDecoderMatchesDecoder holds the rec emitter to the entry
// emitter one frame at a time, against the engine itself rather than a
// map: a CRC-valid frame of arbitrary records goes through Decoder and,
// twice, through a rec decoder over a fresh engine that knows a few
// subscribers — cold, when the frame's other identities miss and Settle
// interns them, then warm, when every one is a hit. Both
// passes must fail with the entry emitter's error, leaving the engine
// without a new subscriber, or give its fields: the IDs and shard the
// engine resolves each entry's own strings to, the host class, KB and
// every float bit for bit, and equal labels.
func FuzzRecDecoderMatchesDecoder(f *testing.F) {
	known := []string{"sub-a", "sub-b", "s"}
	seed := func(entries []weblog.Entry, labels []qualitymon.Label, cut int) {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, entries, labels); err != nil {
			f.Fatal(err)
		}
		h, err := parseHeader(buf.Bytes()[:HeaderLen])
		if err != nil {
			f.Fatal(err)
		}
		payload := buf.Bytes()[HeaderLen:]
		f.Add(uint16(h.Records), payload[:len(payload)-cut])
	}
	entry := func(sub string, ts float64, region string) weblog.Entry {
		return weblog.Entry{Subscriber: sub, Timestamp: ts, Host: "r1---sn-a.googlevideo.com", Bytes: 4096,
			TransactionSec: 0.5, RTTAvg: 0.03, Region: region, Device: "tv"}
	}
	midFrame := []weblog.Entry{entry("sub-a", 1, "eu"), entry("sub-b", 2, "eu"), entry("sub-new", 3, "us"),
		entry("sub-b", 4, ""), entry("sub-new", 5, "us")}
	seed([]weblog.Entry{entry("sub-a", 1, "eu"), entry("sub-a", 2, "eu"), entry("sub-new", 3, ""),
		entry("sub-new", 4, "us"), entry("sub-a", 5, "us")}, nil, 0) // repeats a subscriber, known and new
	seed(midFrame, nil, 0) // introduces one mid-frame
	seed([]weblog.Entry{entry("sub-a", 1, "eu"), entry("sub-new", 2, "eu")},
		[]qualitymon.Label{{Subscriber: "sub-new", End: 2, Stall: 1}, {Subscriber: "sub-a", End: 1}, {Subscriber: "sub-never", End: 3}}, 0)
	seed(midFrame, nil, 3) // fails at the last record
	// the cohort of midFrame's first entry, sent again with its lengths
	// in more bytes than they need
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, midFrame[:1], nil); err != nil {
		f.Fatal(err)
	}
	one := buf.Bytes()[HeaderLen : buf.Len()-len("\x02eu\x02tv\x00")]
	f.Add(uint16(2), append(append(one, 0x82, 0x00, 'e', 'u', 0x82, 0x80, 0x00, 't', 'v', 0x80, 0x00), buf.Bytes()[HeaderLen:]...))

	f.Fuzz(func(t *testing.T, records uint16, payload []byte) {
		h := Header{Records: int(records), Len: len(payload), CRC: crc32.ChecksumIEEE(payload)}
		entries, labels, err := NewDecoder().DecodeFrame(h, payload)

		eng := engine.New(nil, engine.Config{Shards: 3, Mailbox: 1, MinChunks: 1 << 30, SweepEverySec: -1}, nil)
		defer eng.Drain()
		subs := make([][]byte, len(known))
		for i, name := range known {
			subs[i] = []byte(name)
		}
		eng.Settle(subs, nil, make([]sessionizer.Rec, len(subs)), make([]uint32, len(subs)))
		identify := func(e *weblog.Entry) (sub, shard, cohort uint32) {
			var rec [1]sessionizer.Rec
			eng.Settle(nil, [][]byte{weblog.AppendCohortKey(nil, e.Region, e.Device, e.Cap)}, rec[:], nil)
			ref := findOne(eng, e.Subscriber)
			return ref.ID, ref.Shard, rec[0].Cohort
		}

		rd := newRecDecoder(eng)
		for pass := 0; pass < 2; pass++ { // cold, then warm
			recs, shardOf, rlabels, rerr := rd.DecodeFrame(h, payload)
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
				t.Fatalf("pass %d: entries %v, recs %v", pass, err, rerr)
			}
			if err != nil {
				if n, _, _ := eng.InternerStats(); n != len(known) {
					t.Fatalf("a failed frame left %d subscribers interned, want %d", n, len(known))
				}
				return
			}
			if err := sameRecords(identify, entries, labels, recs, shardOf, rlabels); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
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
