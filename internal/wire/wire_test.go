package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
)

func testEntries() []weblog.Entry {
	return []weblog.Entry{
		{
			Timestamp: 1.5, Subscriber: "sub-1", Host: "r3---sn.googlevideo.com",
			URI: "/videoplayback?id=9", Encrypted: false, ServerIP: "203.0.113.9",
			ServerPort: 80, Bytes: 1 << 20, TransactionSec: 2.25,
			RTTMin: 0.01, RTTAvg: 0.02, RTTMax: 0.4, BDP: 52000,
			BIFAvg: 11000, BIFMax: 64000, LossPct: 0.5, RetransPct: 0.25,
			Cached: true, Compressed: true,
		},
		{
			Timestamp: 2, Subscriber: "sub-2", Host: "www.youtube.com",
			Encrypted: true, ServerIP: "203.0.113.10", ServerPort: 443,
			Bytes: 4096, TransactionSec: 0.1, RTTAvg: 0.03,
			Region: "eu-west", Device: "mobile", Cap: "hd",
		},
		// partial cohort metadata still sets the cohort flag bit
		{
			Timestamp: 2.5, Subscriber: "sub-3", Host: "www.youtube.com",
			Encrypted: true, ServerPort: 443, Region: "apac",
		},
		// zero entry: every field at its zero value must survive
		{},
	}
}

func testLabels() []qualitymon.Label {
	return []qualitymon.Label{
		{Subscriber: "sub-1", Start: 1.5, End: 200.25, AvailableAt: 320, Stall: 2, Rep: 1},
		{Subscriber: "sub-2", Start: 0, End: 90, AvailableAt: 91.5, Stall: 0, Rep: 0},
	}
}

// decodeStream reads every frame off buf and concatenates the decoded
// batches (copying, since the decoder reuses scratch).
func decodeStream(t *testing.T, buf *bytes.Buffer) ([]weblog.Entry, []qualitymon.Label) {
	t.Helper()
	fr := NewFrameReader(buf)
	dec := NewDecoder()
	var entries []weblog.Entry
	var labels []qualitymon.Label
	for {
		h, payload, err := fr.Next()
		if err == io.EOF {
			return entries, labels
		}
		if err != nil {
			t.Fatalf("reading frame: %v", err)
		}
		es, ls, err := dec.DecodeFrame(h, payload)
		if err != nil {
			t.Fatalf("decoding frame: %v", err)
		}
		entries = append(entries, es...)
		labels = append(labels, ls...)
	}
}

func TestRoundTrip(t *testing.T) {
	wantE, wantL := testEntries(), testLabels()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, wantE, wantL); err != nil {
		t.Fatal(err)
	}
	gotE, gotL := decodeStream(t, &buf)
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("entries round-trip:\n got %+v\nwant %+v", gotE, wantE)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("labels round-trip:\n got %+v\nwant %+v", gotL, wantL)
	}
}

// Entries without subscriber metadata must encode exactly as the
// pre-cohort protocol did: flag bit 3 clear, no trailing strings — so
// old captures and old peers interoperate unchanged.
func TestEntryCohortSuffixOptional(t *testing.T) {
	plain := testEntries()[0]
	tagged := plain
	tagged.Region, tagged.Device, tagged.Cap = "eu-west", "mobile", "hd"
	pb := appendEntry(nil, &plain)
	tb := appendEntry(nil, &tagged)
	wantExtra := 3 + len("eu-west") + len("mobile") + len("hd")
	if len(tb)-len(pb) != wantExtra {
		t.Errorf("cohort suffix adds %d bytes, want %d", len(tb)-len(pb), wantExtra)
	}
	// a frame of metadata-free entries decodes on the current decoder
	// with all cohort fields empty
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, []weblog.Entry{plain}, nil); err != nil {
		t.Fatal(err)
	}
	gotE, _ := decodeStream(t, &buf)
	if len(gotE) != 1 || gotE[0].Region != "" || gotE[0].Device != "" || gotE[0].Cap != "" {
		t.Errorf("metadata-free entry decoded as %+v", gotE)
	}
}

func TestRoundTripLabelsBeforeEntriesInterleaved(t *testing.T) {
	// one frame carrying both kinds, interleaved by the caller
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	e, l := testEntries()[0], testLabels()[0]
	for i := 0; i < 3; i++ {
		if err := enc.AppendEntry(&e); err != nil {
			t.Fatal(err)
		}
		if err := enc.AppendLabel(&l); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(0); err != nil {
		t.Fatal(err)
	}
	gotE, gotL := decodeStream(t, &buf)
	if len(gotE) != 3 || len(gotL) != 3 {
		t.Fatalf("got %d entries, %d labels, want 3+3", len(gotE), len(gotL))
	}
}

func TestAutoFlushSplitsFrames(t *testing.T) {
	// entries with near-MaxString URIs exceed flushTarget quickly, so
	// the encoder must cut several frames on its own
	e := weblog.Entry{Subscriber: "s", URI: strings.Repeat("u", MaxString)}
	n := flushTarget/MaxString + 64
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.AppendEntry(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(0); err != nil {
		t.Fatal(err)
	}
	frames := 0
	fr := NewFrameReader(&buf)
	dec := NewDecoder()
	total := 0
	for {
		h, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if h.Len > flushTarget+4096 {
			t.Errorf("frame payload %d exceeds flush target bound", h.Len)
		}
		es, _, err := dec.DecodeFrame(h, payload)
		if err != nil {
			t.Fatal(err)
		}
		total += len(es)
		frames++
	}
	if frames < 2 {
		t.Errorf("auto-flush produced %d frames, want several", frames)
	}
	if total != n {
		t.Errorf("decoded %d entries, want %d", total, n)
	}
}

func TestEncoderClampsAndTruncates(t *testing.T) {
	e := weblog.Entry{
		Subscriber: "s",
		URI:        strings.Repeat("x", MaxString+500),
		Bytes:      -42, // negative clamps to zero, not a 10-byte uvarint
		ServerPort: -1,
	}
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, []weblog.Entry{e}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := decodeStream(t, &buf)
	if len(got) != 1 {
		t.Fatalf("got %d entries", len(got))
	}
	if len(got[0].URI) != MaxString {
		t.Errorf("URI length %d, want truncation at %d", len(got[0].URI), MaxString)
	}
	if got[0].Bytes != 0 || got[0].ServerPort != 0 {
		t.Errorf("negative ints decoded as %d/%d, want 0/0", got[0].Bytes, got[0].ServerPort)
	}
}

func TestEmptyFlushWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Flush(0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty flagless flush wrote %d bytes", buf.Len())
	}
	// but a flagged empty frame (sync barrier) is written
	if err := NewEncoder(&buf).Flush(FlagAckRequest); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HeaderLen {
		t.Errorf("empty ack-request frame is %d bytes, want bare header", buf.Len())
	}
}

func TestAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.appendAck(12345, 67); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(FlagAck); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	h, payload, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&FlagAck == 0 {
		t.Error("ack frame lost its flag")
	}
	dec := NewDecoder()
	if _, _, err := dec.DecodeFrame(h, payload); err != nil {
		t.Fatal(err)
	}
	ack := dec.LastAck()
	if !ack.Seen || ack.Entries != 12345 || ack.Labels != 67 {
		t.Errorf("ack = %+v", ack)
	}
}

// oneFrame encodes a single valid frame and returns its raw bytes.
func oneFrame(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, testEntries(), testLabels()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readOne reads raw's first frame and decodes it through both
// emitters, which must accept or reject it alike and with the same
// error class; a disagreement comes back as an error of no class.
func readOne(raw []byte) (Header, []byte, error) {
	fr := NewFrameReader(bytes.NewReader(raw))
	h, payload, err := fr.Next()
	if err != nil {
		return h, nil, err
	}
	_, _, err = NewDecoder().DecodeFrame(h, payload)
	_, _, _, rerr := newRecDecoder(newStubSink(2), internMax).DecodeFrame(h, payload)
	if wireClass(err) != wireClass(rerr) {
		return h, payload, fmt.Errorf("emitters disagree: entries %v, recs %v", err, rerr)
	}
	return h, payload, err
}

func TestDecodeRejections(t *testing.T) {
	base := oneFrame(t)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrMagic},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"oversize payload length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], MaxPayload+1)
			return b
		}, ErrOversize},
		{"truncated header", func(b []byte) []byte { return b[:HeaderLen-3] }, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, ErrTruncated},
		{"payload corruption", func(b []byte) []byte { b[HeaderLen] ^= 0xff; return b }, ErrCRC},
		{"record count too high", func(b []byte) []byte {
			n := binary.LittleEndian.Uint16(b[6:])
			binary.LittleEndian.PutUint16(b[6:], n+1)
			return b
		}, ErrRecord},
		{"record count too low", func(b []byte) []byte {
			n := binary.LittleEndian.Uint16(b[6:])
			binary.LittleEndian.PutUint16(b[6:], n-1)
			return b
		}, ErrRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.mut(append([]byte(nil), base...))
			if _, _, err := readOne(raw); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// rawFrame builds a frame whose header is consistent (count, length,
// CRC) around an arbitrary payload, so record-level rejection paths
// are reachable.
func rawFrame(records int, payload []byte) []byte {
	out := make([]byte, HeaderLen, HeaderLen+len(payload))
	putHeader(out, Header{Records: records, Len: len(payload), CRC: crc32.ChecksumIEEE(payload)})
	return append(out, payload...)
}

func TestDecodeRecordRejections(t *testing.T) {
	bigStr := binary.AppendUvarint([]byte{recEntry}, MaxString+1)
	badPort := func() []byte {
		p := []byte{recEntry}
		p = binary.AppendUvarint(p, 0) // subscriber ""
		p = binary.AppendUvarint(p, 0) // host
		p = binary.AppendUvarint(p, 0) // uri
		p = binary.AppendUvarint(p, 0) // server_ip
		p = append(p, 0)               // flags
		p = binary.AppendUvarint(p, 70000)
		return p
	}()
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"unknown kind", rawFrame(1, []byte{0x7f}), ErrRecord},
		{"string overruns bound", rawFrame(1, bigStr), ErrOversize},
		{"string overruns payload", rawFrame(1, binary.AppendUvarint([]byte{recEntry}, 10)), ErrRecord},
		{"entry cut at floats", rawFrame(1, badPort[:len(badPort)-1]), ErrRecord},
		{"port out of range", rawFrame(1, badPort), ErrRecord},
		{"empty payload with records", rawFrame(2, nil), ErrRecord},
		{"trailing bytes", rawFrame(0, []byte{recEntry}), ErrRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := readOne(tc.raw); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecoderRollsBackPartialEntry(t *testing.T) {
	// a good entry followed by one cut mid-floats must fail without the
	// partial entry surviving in scratch for the next (valid) frame
	var buf bytes.Buffer
	e := testEntries()[0]
	if err := EncodeBatch(&buf, []weblog.Entry{e}, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()[HeaderLen:]
	bad := append(append([]byte(nil), good...), good[:len(good)-8]...)
	dec := NewDecoder()
	h := Header{Records: 2, Len: len(bad), CRC: crc32.ChecksumIEEE(bad)}
	if _, _, err := dec.DecodeFrame(h, bad); !errors.Is(err, ErrRecord) {
		t.Fatalf("got %v, want ErrRecord", err)
	}
	h = Header{Records: 1, Len: len(good), CRC: crc32.ChecksumIEEE(good)}
	entries, _, err := dec.DecodeFrame(h, good)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("scratch carried %d entries across a failed decode", len(entries))
	}
}

// TestRecDecoderFailedFrameTouchesNothing is the rec emitter's side of
// all-or-nothing: a CRC-valid frame whose last record is cut short,
// after records that introduce a subscriber and a cohort, must reach
// the engine not at all — no Intern call, no new ID, and the frame's
// new subscriber still misses in Find — and leave the cohort cache as it
// was, and the decoder must go on to decode a valid frame.
func TestRecDecoderFailedFrameTouchesNothing(t *testing.T) {
	sink := newStubSink(2)
	rd := newRecDecoder(sink, internMax)
	known := testEntries()[1] // carries cohort metadata
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, []weblog.Entry{known}, nil); err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), buf.Bytes()[HeaderLen:]...)
	h := Header{Records: 1, Len: len(good), CRC: crc32.ChecksumIEEE(good)}
	if _, _, _, err := rd.DecodeFrame(h, good); err != nil {
		t.Fatal(err)
	}
	interns, cohorts := sink.interns, len(rd.cohorts)
	knownRef, _ := sink.Find([]byte(known.Subscriber))

	fresh := known
	fresh.Subscriber, fresh.Region = "sub-new", "mars"
	buf.Reset()
	if err := EncodeBatch(&buf, []weblog.Entry{fresh, known}, nil); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()[HeaderLen:]...)
	bad = bad[:len(bad)-3] // cut inside the last record's cohort suffix
	h = Header{Records: 2, Len: len(bad), CRC: crc32.ChecksumIEEE(bad)}
	if _, _, _, err := rd.DecodeFrame(h, bad); !errors.Is(err, ErrRecord) {
		t.Fatalf("got %v, want ErrRecord", err)
	}
	if sink.interns != interns || len(sink.names) != 1 || len(sink.keys) != 1 {
		t.Errorf("failed frame reached the engine: %d Intern calls (was %d), %d subscribers, %d cohorts",
			sink.interns, interns, len(sink.names), len(sink.keys))
	}
	if _, ok := sink.Find([]byte("sub-new")); ok {
		t.Error("the failed frame's new subscriber resolves in the engine")
	}
	if len(rd.cohorts) != cohorts {
		t.Errorf("failed frame changed the cohort cache: %d keys (was %d)", len(rd.cohorts), cohorts)
	}
	h = Header{Records: 1, Len: len(good), CRC: crc32.ChecksumIEEE(good)}
	recs, _, _, err := rd.DecodeFrame(h, good)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Sub != knownRef.ID {
		t.Errorf("scratch carried %d recs across a failed decode (sub %d)", len(recs), recs[0].Sub)
	}
}

func TestFrameReaderEOFSemantics(t *testing.T) {
	// clean EOF between frames
	fr := NewFrameReader(bytes.NewReader(nil))
	if _, _, err := fr.Next(); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	// cut inside a header
	fr = NewFrameReader(bytes.NewReader(oneFrame(t)[:7]))
	if _, _, err := fr.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("mid-header cut: %v, want ErrTruncated", err)
	}
	// cut inside a payload
	raw := oneFrame(t)
	fr = NewFrameReader(bytes.NewReader(raw[:len(raw)-1]))
	if _, _, err := fr.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("mid-payload cut: %v, want ErrTruncated", err)
	}
}

func TestInternReusesStrings(t *testing.T) {
	e := testEntries()[0]
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, []weblog.Entry{e, e}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := decodeStream(t, &buf)
	if len(got) != 2 {
		t.Fatal("decode failed")
	}
	// interned strings must be the same backing allocation, not merely
	// equal — that is what makes the steady state allocation-free
	if unsafe.StringData(got[0].Host) != unsafe.StringData(got[1].Host) {
		t.Error("repeated host not interned")
	}
}
