package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
)

// internMax bounds each content-keyed table a decoder keeps (the Entry
// emitter's string table; the rec emitter's cohort-span cache). Live
// traffic cycles through a bounded vocabulary, so the tables converge
// and the steady state does no per-entry string allocation; if a
// hostile or pathological stream keeps minting new strings a full table
// is dropped rather than grown.
const internMax = 1 << 16

// Decoder turns validated frame payloads back into entries and
// labels. The returned slices are scratch owned by the decoder —
// valid only until the next DecodeFrame call — which is exactly the
// lifetime the engine's Ingest/Feed contract needs (the engine digests
// entries into its own recs and clones any string it interns before the
// call returns). Not safe for concurrent use.
type Decoder struct {
	entries []weblog.Entry
	labels  []qualitymon.Label
	ack     Ack
	interns map[string]string
	raw     rawEntry
}

// Ack is a decoded ack record: the peer's cumulative accepted counts.
type Ack struct {
	Seen            bool
	Entries, Labels int64
}

// NewDecoder returns a decoder with an empty intern table.
func NewDecoder() *Decoder {
	return &Decoder{interns: make(map[string]string, 256)}
}

// DecodeFrame validates payload against h (CRC, record count, exact
// length) and parses its records. The entry and label slices alias
// decoder scratch and are only valid until the next call.
func (d *Decoder) DecodeFrame(h Header, payload []byte) (entries []weblog.Entry, labels []qualitymon.Label, err error) {
	d.entries = d.entries[:0]
	if err := d.decodeFrame(h, payload, nil); err != nil {
		return nil, nil, err
	}
	return d.entries, d.labels, nil
}

// decodeFrame is the one frame walk behind both emitters: every check
// of the frame and of each record happens here (and in the parsers it
// calls), whichever form the entries leave in. With recs == nil entry
// records become weblog.Entry values and label subscribers are
// interned; otherwise both are handed to the rec emitter.
func (d *Decoder) decodeFrame(h Header, payload []byte, recs *recDecoder) error {
	if len(payload) != h.Len {
		return fmt.Errorf("%w: %d payload bytes, header says %d", ErrTruncated, len(payload), h.Len)
	}
	if crc32.ChecksumIEEE(payload) != h.CRC {
		return ErrCRC
	}
	d.labels = d.labels[:0]
	d.ack = Ack{}
	for rec := 0; rec < h.Records; rec++ {
		if len(payload) == 0 {
			return fmt.Errorf("%w: payload ends at record %d of %d", ErrRecord, rec, h.Records)
		}
		kind := payload[0]
		payload = payload[1:]
		var err error
		switch kind {
		case recEntry:
			if payload, err = parseEntry(payload, &d.raw); err == nil {
				if recs != nil {
					recs.emit(&d.raw)
				} else {
					d.emitEntry(&d.raw)
				}
			}
		case recLabel:
			var sub []byte
			if sub, payload, err = d.decodeLabel(payload); err == nil {
				if recs != nil {
					recs.labelSubs = append(recs.labelSubs, sub)
				} else {
					d.labels[len(d.labels)-1].Subscriber = d.intern(sub)
				}
			}
		case recAck:
			payload, err = d.decodeAck(payload)
		default:
			return fmt.Errorf("%w: unknown record kind %d", ErrRecord, kind)
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", rec, err)
		}
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %d records", ErrRecord, len(payload), h.Records)
	}
	return nil
}

// LastAck returns the ack decoded from the most recent frame, if any.
func (d *Decoder) LastAck() Ack { return d.ack }

// intern returns a string equal to b, reusing a previously built
// string when the content was seen before. The map lookup with a
// string(b) key does not allocate; only first sightings do.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.interns[string(b)]; ok {
		return s
	}
	if len(d.interns) >= internMax {
		d.interns = make(map[string]string, 256)
	}
	s := string(b)
	d.interns[s] = s
	return s
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrRecord)
	}
	return v, b[n:], nil
}

// takeString decodes a uvarint-prefixed string without copying: the
// returned bytes alias b.
func takeString(b []byte) ([]byte, []byte, error) {
	// a length under 128 is its own uvarint, and under MaxString
	if len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) {
		n := 1 + int(b[0])
		return b[1:n], b[n:], nil
	}
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > MaxString {
		return nil, nil, fmt.Errorf("%w: %d-byte string", ErrOversize, n)
	}
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("%w: string overruns payload", ErrRecord)
	}
	return rest[:n], rest[n:], nil
}

func takeFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: short float64", ErrRecord)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// entryFloats is the number of little-endian float64s an entry record
// carries after its integers: timestamp, transaction_sec, rtt_min,
// rtt_avg, rtt_max, bdp, bif_avg, bif_max, loss_pct, retrans_pct.
const entryFloats = 10

// rawEntry is one parsed entry record: every field bounds- and
// range-checked, nothing converted. The byte slices alias the payload.
type rawEntry struct {
	sub, host, uri, ip []byte
	flags              byte
	port, size         uint64
	floats             []byte // entryFloats*8 bytes, wire order
	// cohort is the region‖device‖cap suffix exactly as on the wire,
	// length prefixes included (so equal spans are equal triples); nil
	// when the flag bit is clear. region, device and cp are its parts.
	cohort, region, device, cp []byte
}

// f64 reads the i-th little-endian float64 of b.
func f64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// parseEntry is the one entry-record parser: it validates the record
// at the head of b into r and returns what follows it. Both emitters
// run behind it, so a record either passes every check or reaches
// neither.
func parseEntry(b []byte, r *rawEntry) ([]byte, error) {
	var err error
	if r.sub, b, err = takeString(b); err != nil {
		return nil, err
	}
	if r.host, b, err = takeString(b); err != nil {
		return nil, err
	}
	if r.uri, b, err = takeString(b); err != nil {
		return nil, err
	}
	if r.ip, b, err = takeString(b); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: missing entry flags", ErrRecord)
	}
	r.flags = b[0]
	b = b[1:]
	if r.port, b, err = takeUvarint(b); err != nil {
		return nil, err
	}
	if r.port > 65535 {
		return nil, fmt.Errorf("%w: port %d", ErrRecord, r.port)
	}
	if r.size, b, err = takeUvarint(b); err != nil {
		return nil, err
	}
	if r.size > math.MaxInt64/2 {
		return nil, fmt.Errorf("%w: object size %d", ErrRecord, r.size)
	}
	if len(b) < 8*entryFloats {
		return nil, fmt.Errorf("%w: short float64", ErrRecord)
	}
	r.floats, b = b[:8*entryFloats], b[8*entryFloats:]
	r.cohort, r.region, r.device, r.cp = nil, nil, nil, nil
	if r.flags&entryCohort != 0 {
		span := b
		if r.region, b, err = takeString(b); err != nil {
			return nil, err
		}
		if r.device, b, err = takeString(b); err != nil {
			return nil, err
		}
		if r.cp, b, err = takeString(b); err != nil {
			return nil, err
		}
		r.cohort = span[:len(span)-len(b)]
	}
	return b, nil
}

// emitEntry appends a parsed record as a weblog.Entry, its strings
// interned.
func (d *Decoder) emitEntry(r *rawEntry) {
	f := r.floats
	d.entries = append(d.entries, weblog.Entry{
		Timestamp:      f64(f, 0),
		Subscriber:     d.intern(r.sub),
		Host:           d.intern(r.host),
		URI:            d.intern(r.uri),
		Encrypted:      r.flags&entryEncrypted != 0,
		ServerIP:       d.intern(r.ip),
		ServerPort:     int(r.port),
		Bytes:          int(r.size),
		TransactionSec: f64(f, 1),
		RTTMin:         f64(f, 2),
		RTTAvg:         f64(f, 3),
		RTTMax:         f64(f, 4),
		BDP:            f64(f, 5),
		BIFAvg:         f64(f, 6),
		BIFMax:         f64(f, 7),
		LossPct:        f64(f, 8),
		RetransPct:     f64(f, 9),
		Cached:         r.flags&entryCached != 0,
		Compressed:     r.flags&entryCompressed != 0,
		Region:         d.intern(r.region),
		Device:         d.intern(r.device),
		Cap:            d.intern(r.cp),
	})
}

// decodeLabel parses one label record onto d.labels, leaving its
// Subscriber for the caller to fill from the returned bytes (which
// alias b).
func (d *Decoder) decodeLabel(b []byte) (sub, rest []byte, err error) {
	if sub, b, err = takeString(b); err != nil {
		return nil, nil, err
	}
	var l qualitymon.Label
	if l.Start, b, err = takeFloat(b); err != nil {
		return nil, nil, err
	}
	if l.End, b, err = takeFloat(b); err != nil {
		return nil, nil, err
	}
	if l.AvailableAt, b, err = takeFloat(b); err != nil {
		return nil, nil, err
	}
	var stall, rep uint64
	if stall, b, err = takeUvarint(b); err != nil {
		return nil, nil, err
	}
	if rep, b, err = takeUvarint(b); err != nil {
		return nil, nil, err
	}
	if stall > 255 || rep > 255 {
		return nil, nil, fmt.Errorf("%w: label classes %d/%d", ErrRecord, stall, rep)
	}
	l.Stall, l.Rep = int(stall), int(rep)
	d.labels = append(d.labels, l)
	return sub, b, nil
}

func (d *Decoder) decodeAck(b []byte) ([]byte, error) {
	entries, b, err := takeUvarint(b)
	if err != nil {
		return nil, err
	}
	labels, b, err := takeUvarint(b)
	if err != nil {
		return nil, err
	}
	if entries > math.MaxInt64 || labels > math.MaxInt64 {
		return nil, fmt.Errorf("%w: ack counts overflow", ErrRecord)
	}
	d.ack = Ack{Seen: true, Entries: int64(entries), Labels: int64(labels)}
	return b, nil
}

// FrameReader reads frames off a stream into a reusable payload
// buffer. Not safe for concurrent use.
type FrameReader struct {
	r       io.Reader
	hdr     [HeaderLen]byte
	payload []byte
}

// NewFrameReader wraps r (wrap conns in a bufio.Reader first; the
// reader issues small header reads).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next reads one frame. The payload aliases the reader's buffer and
// is valid until the next call. io.EOF marks a clean end between
// frames; a stream cut mid-frame is ErrTruncated.
func (fr *FrameReader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream ends inside a header", ErrTruncated)
		}
		return Header{}, nil, err
	}
	h, err := parseHeader(fr.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	if cap(fr.payload) < h.Len {
		fr.payload = make([]byte, h.Len)
	}
	fr.payload = fr.payload[:h.Len]
	if _, err := io.ReadFull(fr.r, fr.payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream ends inside a payload", ErrTruncated)
		}
		return Header{}, nil, err
	}
	return h, fr.payload, nil
}
