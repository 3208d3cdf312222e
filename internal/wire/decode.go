package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
)

// internMax bounds the Entry emitter's string table. Live traffic
// cycles through a bounded vocabulary, so the table converges and the
// steady state does no per-entry string allocation; if a hostile or
// pathological stream keeps minting new strings a full table is dropped
// rather than grown.
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
// calls), whichever form the entries leave in. It walks the payload with
// a cursor; the parsers take and return offsets into it. With recs ==
// nil entry records become weblog.Entry values and label subscribers are
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
	at := 0
	for rec := 0; rec < h.Records; rec++ {
		if at == len(payload) {
			return fmt.Errorf("%w: payload ends at record %d of %d", ErrRecord, rec, h.Records)
		}
		kind := payload[at]
		at++
		var err error
		switch kind {
		case recEntry:
			if at, err = parseEntry(payload, at, &d.raw); err == nil {
				if recs != nil {
					recs.emit(payload, &d.raw)
				} else {
					d.emitEntry(payload, &d.raw)
				}
			}
		case recLabel:
			var sub field
			if sub, at, err = d.decodeLabel(payload, at); err == nil {
				if recs != nil {
					recs.labelSubs = append(recs.labelSubs, sub.of(payload))
				} else {
					d.labels[len(d.labels)-1].Subscriber = d.intern(sub.of(payload))
				}
			}
		case recAck:
			at, err = d.decodeAck(payload, at)
		default:
			return fmt.Errorf("%w: unknown record kind %d", ErrRecord, kind)
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", rec, err)
		}
	}
	if at != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes after %d records", ErrRecord, len(payload)-at, h.Records)
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

// uvarint decodes the uvarint at p[at:] and returns the offset after
// it. A value of up to three bytes — every string length, port and
// chunk size in practice — decodes without a loop.
func uvarint(p []byte, at int) (uint64, int, error) {
	if at+2 < len(p) {
		b0, b1, b2 := p[at], p[at+1], p[at+2]
		switch {
		case b0 < 0x80:
			return uint64(b0), at + 1, nil
		case b1 < 0x80:
			return uint64(b0&0x7f) | uint64(b1)<<7, at + 2, nil
		case b2 < 0x80:
			return uint64(b0&0x7f) | uint64(b1&0x7f)<<7 | uint64(b2)<<14, at + 3, nil
		}
	}
	v, n := binary.Uvarint(p[at:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad uvarint", ErrRecord)
	}
	return v, at + n, nil
}

// field is where a parsed string lies in the payload: p[off:end].
type field struct{ off, end uint32 }

// of returns the field's bytes, aliasing p.
func (f field) of(p []byte) []byte { return p[f.off:f.end] }

// len is the field's length in bytes.
func (f field) len() int { return int(f.end - f.off) }

// strs parses the uvarint-prefixed strings at p[at:] into fs, one
// after another, without copying, and returns the offset after the
// last. A length under 128 — its own byte — is decoded here.
func strs(p []byte, at int, fs []field) (int, error) {
	for i := range fs {
		if at < len(p) {
			if n := int(p[at]); n < 0x80 && n < len(p)-at {
				fs[i] = field{uint32(at + 1), uint32(at + 1 + n)}
				at += 1 + n
				continue
			}
		}
		n, next, err := uvarint(p, at)
		if err != nil {
			return 0, err
		}
		if n > MaxString {
			return 0, fmt.Errorf("%w: %d-byte string", ErrOversize, n)
		}
		if uint64(len(p)-next) < n {
			return 0, fmt.Errorf("%w: string overruns payload", ErrRecord)
		}
		fs[i] = field{uint32(next), uint32(next + int(n))}
		at = next + int(n)
	}
	return at, nil
}

// entryFloats is the number of little-endian float64s an entry record
// carries after its integers: timestamp, transaction_sec, rtt_min,
// rtt_avg, rtt_max, bdp, bif_avg, bif_max, loss_pct, retrans_pct.
const entryFloats = 10

// minEntryRecord is the fewest bytes an entry record takes, kind byte
// included: four empty strings, the flags, a one-byte port and size, the
// floats. A payload of n bytes holds at most n/minEntryRecord entries.
const minEntryRecord = 1 + 4 + 1 + 2 + 8*entryFloats

// floats is an entry record's float64s, in wire order.
type floats = [8 * entryFloats]byte

// rawEntry is one parsed entry record: every field bounds- and
// range-checked, nothing converted. Strings are fields of the payload;
// floats points into it.
type rawEntry struct {
	strs       [4]field // subscriber, host, uri, server_ip
	flags      byte
	port, size uint64
	floats     *floats
	// cohort is the region‖device‖cap suffix exactly as on the wire,
	// length prefixes included (with minimal lengths, the triple's
	// canonical key), and parts its three strings; both are read only
	// when the flag bit is set.
	cohort field
	parts  [3]field
}

// The string fields of an entry record, in wire order.
const (
	strSub = iota
	strHost
	strURI
	strIP
)

// f64 reads the i-th float64 of an entry record.
func f64(f *floats, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(f[8*i:]))
}

// parseEntry is the one entry-record parser: it validates the record
// at p[at:] into r and returns the offset after it. Both emitters run
// behind it, so a record either passes every check or reaches neither.
func parseEntry(p []byte, at int, r *rawEntry) (int, error) {
	var err error
	if at, err = strs(p, at, r.strs[:]); err != nil {
		return 0, err
	}
	if at == len(p) {
		return 0, fmt.Errorf("%w: missing entry flags", ErrRecord)
	}
	r.flags = p[at]
	if r.port, at, err = uvarint(p, at+1); err != nil {
		return 0, err
	}
	if r.port > 65535 {
		return 0, fmt.Errorf("%w: port %d", ErrRecord, r.port)
	}
	if r.size, at, err = uvarint(p, at); err != nil {
		return 0, err
	}
	if r.size > math.MaxInt64/2 {
		return 0, fmt.Errorf("%w: object size %d", ErrRecord, r.size)
	}
	if len(p)-at < len(floats{}) {
		return 0, fmt.Errorf("%w: short float64", ErrRecord)
	}
	r.floats = (*floats)(p[at:])
	at += len(floats{})
	if r.flags&entryCohort != 0 {
		r.cohort.off = uint32(at)
		if at, err = strs(p, at, r.parts[:]); err != nil {
			return 0, err
		}
		r.cohort.end = uint32(at)
	}
	return at, nil
}

// emitEntry appends a record parsed out of p as a weblog.Entry, its
// strings interned.
func (d *Decoder) emitEntry(p []byte, r *rawEntry) {
	f := r.floats
	var region, device, cp []byte
	if r.flags&entryCohort != 0 {
		region, device, cp = r.parts[0].of(p), r.parts[1].of(p), r.parts[2].of(p)
	}
	d.entries = append(d.entries, weblog.Entry{
		Timestamp:      f64(f, 0),
		Subscriber:     d.intern(r.strs[strSub].of(p)),
		Host:           d.intern(r.strs[strHost].of(p)),
		URI:            d.intern(r.strs[strURI].of(p)),
		Encrypted:      r.flags&entryEncrypted != 0,
		ServerIP:       d.intern(r.strs[strIP].of(p)),
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
		Region:         d.intern(region),
		Device:         d.intern(device),
		Cap:            d.intern(cp),
	})
}

// decodeLabel parses the label record at p[at:] onto d.labels, leaving
// its Subscriber for the caller to fill from the returned field, and
// returns the offset after it.
func (d *Decoder) decodeLabel(p []byte, at int) (sub field, next int, err error) {
	var f [1]field
	if at, err = strs(p, at, f[:]); err != nil {
		return sub, 0, err
	}
	sub = f[0]
	if len(p)-at < 3*8 {
		return sub, 0, fmt.Errorf("%w: short float64", ErrRecord)
	}
	b := p[at : at+3*8]
	l := qualitymon.Label{
		Start:       math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		End:         math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		AvailableAt: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}
	var stall, rep uint64
	if stall, at, err = uvarint(p, at+3*8); err != nil {
		return sub, 0, err
	}
	if rep, at, err = uvarint(p, at); err != nil {
		return sub, 0, err
	}
	if stall > 255 || rep > 255 {
		return sub, 0, fmt.Errorf("%w: label classes %d/%d", ErrRecord, stall, rep)
	}
	l.Stall, l.Rep = int(stall), int(rep)
	d.labels = append(d.labels, l)
	return sub, at, nil
}

// decodeAck parses the ack record at p[at:] and returns the offset
// after it.
func (d *Decoder) decodeAck(p []byte, at int) (int, error) {
	entries, at, err := uvarint(p, at)
	if err != nil {
		return 0, err
	}
	labels, at, err := uvarint(p, at)
	if err != nil {
		return 0, err
	}
	if entries > math.MaxInt64 || labels > math.MaxInt64 {
		return 0, fmt.Errorf("%w: ack counts overflow", ErrRecord)
	}
	d.ack = Ack{Seen: true, Entries: int64(entries), Labels: int64(labels)}
	return at, nil
}

// frameBufMin is the size a FrameReader's buffer starts at: an ack
// frame's reader never needs more.
const frameBufMin = 4 << 10

// connFrameBuf is the size a listener connection's buffer starts at:
// under backlog one read takes up to this much of the socket however
// small the frames, and replay sends harvests of as few as one entry.
const connFrameBuf = 64 << 10

// FrameReader reads frames off a stream into one buffer and returns
// each payload where it lies: nothing is copied between the stream and
// the decoder. A read takes whatever the stream has, up to the buffer's
// end, so one read can carry many small frames — but stops at the next
// frame's header when a frame as large as this one would not fit after
// it, so that a frame is moved to the buffer's front only as far as it
// was read: a header, or what a short read left. The buffer starts at
// frameBufMin bytes (connFrameBuf on the listener) and grows only when
// a frame does not fit, to the power of two that holds it, never past
// HeaderLen+MaxPayload. Not safe for concurrent use.
type FrameReader struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read and not yet returned
	last     int // the last frame's size, header included
}

// NewFrameReader returns a reader of the frames on r; it buffers r
// itself.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// newConnFrameReader is the listener's reader of a connection's frames,
// its buffer connFrameBuf bytes from the start.
func newConnFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, connFrameBuf)}
}

// Next reads one frame. The payload aliases the reader's buffer and
// is valid until the next call. io.EOF marks a clean end between
// frames; a stream cut mid-frame is ErrTruncated.
func (fr *FrameReader) Next() (Header, []byte, error) {
	if err := fr.fill(HeaderLen); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream ends inside a header", ErrTruncated)
		}
		return Header{}, nil, err
	}
	h, err := parseHeader(fr.buf[fr.off : fr.off+HeaderLen])
	if err != nil {
		return Header{}, nil, err
	}
	fr.last = HeaderLen + h.Len
	if err := fr.fill(fr.last); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream ends inside a payload", ErrTruncated)
		}
		return Header{}, nil, err
	}
	at := fr.off + HeaderLen
	fr.off = at + h.Len
	return h, fr.buf[at:fr.off:fr.off], nil
}

// fill reads until n bytes are buffered, n being a header or the whole
// frame it announced. The frame is taken to be as large as the last one
// while only its header is known. What is buffered moves to the front
// first when nothing is, or when the frame would run past the buffer's
// end (the payload Next returned last is done with), into a larger
// buffer if n does not fit at all. The stream ending before the n bytes
// is io.EOF when nothing was buffered, else io.ErrUnexpectedEOF.
func (fr *FrameReader) fill(n int) error {
	if fr.end-fr.off >= n {
		return nil
	}
	size := n
	if n == HeaderLen {
		size = max(n, fr.last)
	}
	if fr.off == fr.end || fr.off+size > len(fr.buf) {
		buf := fr.buf
		if n > len(buf) {
			buf = make([]byte, min(max(frameBufMin, 1<<bits.Len(uint(n-1))), HeaderLen+MaxPayload))
		}
		fr.off, fr.end, fr.buf = 0, copy(buf, fr.buf[fr.off:fr.end]), buf
	}
	limit := len(fr.buf)
	if fr.off+2*size > limit {
		// a frame as large will not fit after this one: read no more of
		// it than its header
		limit = min(limit, fr.off+size+HeaderLen)
	}
	for fr.end-fr.off < n {
		m, err := fr.r.Read(fr.buf[fr.end:limit])
		fr.end += m
		if err != nil && fr.end-fr.off < n {
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
