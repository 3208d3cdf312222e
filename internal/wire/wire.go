// Package wire is the monitor's binary ingest protocol: a
// length-prefixed, versioned frame format that multiplexes weblog
// entries and delayed ground-truth labels over one persistent stream,
// plus the TCP/UDS listener that feeds decoded batches straight into
// the live engine and the pcap-replay bridge that closes the
// packet→session→engine loop.
//
// The HTTP /ingest path pays a reflective JSON decode per entry; at
// the entry rates the sharded engine sustains, that decode — not the
// forest — is the wall. The wire format is built so the serve-side
// decoder does no per-entry allocation on the hot path: fixed-width
// little-endian numerics, uvarint-prefixed strings interned into a
// per-connection table, and frame payloads read into a reusable
// buffer that the decoded batch aliases until the next frame.
//
// One frame walk and one record parser (decode.go) validate everything;
// two emitters sit behind them. Decoder.DecodeFrame yields
// weblog.Entry batches for clients, replay and tests. The listener,
// when its Handler carries a RecSink (the engine), decodes straight
// into routed sessionizer.Recs through per-connection identity caches
// (recs.go) and builds no Entry at all.
//
// Frame layout (byte offsets, little-endian):
//
//	off size field
//	0   4    magic "VQW1"
//	4   1    version (currently 1)
//	5   1    flags (bit 0: ack requested; bit 1: frame is an ack)
//	6   2    record count
//	8   4    payload length (bytes; <= MaxPayload)
//	12  4    CRC32 (IEEE) of the payload
//	16  ...  payload: records, back to back
//
// Each record starts with a one-byte kind:
//
//	kind 1 (entry): subscriber, host, uri, server_ip as
//	  uvarint-length-prefixed strings; flag byte (bit 0 encrypted,
//	  bit 1 cached, bit 2 compressed, bit 3 cohort metadata present);
//	  server_port, bytes as uvarints; then 10 little-endian float64s:
//	  timestamp, transaction_sec, rtt_min, rtt_avg, rtt_max, bdp,
//	  bif_avg, bif_max, loss_pct, retrans_pct. When flag bit 3 is set,
//	  three further uvarint-length-prefixed strings follow: region,
//	  device, cap — the operator-side subscriber metadata keying the
//	  cohort rollups. Encoders omit the suffix (and clear the bit) for
//	  entries without metadata, so pre-cohort streams are bit-for-bit
//	  valid current streams.
//
//	kind 2 (label): subscriber as a uvarint-length-prefixed string;
//	  3 little-endian float64s: start, end, available_at; stall, rep
//	  as uvarints.
//
//	kind 3 (ack): entries, labels accepted on this connection so far,
//	  as uvarints. Sent by the server in a FlagAck frame when the
//	  client set FlagAckRequest; an ack round-trip is the client's
//	  barrier ("everything I sent has been handed to the engine").
//
// A decoder must reject, without panicking or over-allocating:
// truncated headers and payloads, bad magic, unknown versions, CRC
// mismatches, record counts that disagree with the payload, string
// lengths beyond MaxString, and unknown record kinds.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the protocol version this package speaks.
const Version = 1

const (
	// HeaderLen is the fixed frame-header size in bytes.
	HeaderLen = 16
	// MaxPayload bounds one frame's payload so a corrupt or hostile
	// length field can never drive a large allocation.
	MaxPayload = 4 << 20
	// MaxRecords bounds the records in one frame (the count field is
	// 16-bit).
	MaxRecords = 1<<16 - 1
	// MaxString bounds any string field in a record.
	MaxString = 1024
)

// magic opens every frame.
var magic = [4]byte{'V', 'Q', 'W', '1'}

// Flags is the frame-header flag byte.
type Flags uint8

const (
	// FlagAckRequest asks the server to answer this frame with an ack
	// frame carrying the connection's accepted counts.
	FlagAckRequest Flags = 1 << 0
	// FlagAck marks a server→client ack frame.
	FlagAck Flags = 1 << 1
)

// Record kinds.
const (
	recEntry byte = 1
	recLabel byte = 2
	recAck   byte = 3
)

// Entry record flag bits.
const (
	entryEncrypted  = 1 << 0
	entryCached     = 1 << 1
	entryCompressed = 1 << 2
	entryCohort     = 1 << 3
)

// Header is one parsed frame header.
type Header struct {
	Flags   Flags
	Records int
	Len     int    // payload length in bytes
	CRC     uint32 // IEEE CRC32 of the payload
}

// Protocol errors. Decode paths wrap these with context; callers can
// errors.Is against them.
var (
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrOversize  = errors.New("wire: frame exceeds protocol bounds")
	ErrCRC       = errors.New("wire: payload CRC mismatch")
	ErrRecord    = errors.New("wire: malformed record")
)

// putHeader serializes h into dst, which must be at least HeaderLen
// bytes.
func putHeader(dst []byte, h Header) {
	copy(dst, magic[:])
	dst[4] = Version
	dst[5] = byte(h.Flags)
	binary.LittleEndian.PutUint16(dst[6:], uint16(h.Records))
	binary.LittleEndian.PutUint32(dst[8:], uint32(h.Len))
	binary.LittleEndian.PutUint32(dst[12:], h.CRC)
}

// parseHeader validates and parses one frame header.
func parseHeader(src []byte) (Header, error) {
	if len(src) < HeaderLen {
		return Header{}, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(src))
	}
	if [4]byte(src[0:4]) != magic {
		return Header{}, ErrMagic
	}
	if src[4] != Version {
		return Header{}, fmt.Errorf("%w: %d", ErrVersion, src[4])
	}
	h := Header{
		Flags:   Flags(src[5]),
		Records: int(binary.LittleEndian.Uint16(src[6:])),
		Len:     int(binary.LittleEndian.Uint32(src[8:])),
		CRC:     binary.LittleEndian.Uint32(src[12:]),
	}
	if h.Len > MaxPayload {
		return Header{}, fmt.Errorf("%w: %d-byte payload", ErrOversize, h.Len)
	}
	return h, nil
}
