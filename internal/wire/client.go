package wire

import (
	"bufio"
	"fmt"
	"net"
	"strings"

	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
)

// Client is the emitter side of the protocol: it dials a wire
// listener and streams entry/label frames over one persistent
// connection. Not safe for concurrent use.
type Client struct {
	nc  net.Conn
	bw  *bufio.Writer
	enc *Encoder
	fr  *FrameReader
	dec *Decoder
}

// Dial connects to a wire address ("unix:/path/to.sock" or a TCP
// host:port).
func Dial(addr string) (*Client, error) {
	network := "tcp"
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, addr = "unix", path
	}
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (tests use net.Pipe).
func NewClient(nc net.Conn) *Client {
	bw := bufio.NewWriterSize(nc, 64<<10)
	return &Client{nc: nc, bw: bw, enc: NewEncoder(bw), fr: NewFrameReader(nc), dec: NewDecoder()}
}

// SendEntries appends entries to the stream and flushes them to the
// connection: what one call is given leaves before it returns (frames
// fill and are cut as usual, the last one is cut by the flush), so a
// dead peer's write error is that call's error.
func (c *Client) SendEntries(entries []weblog.Entry) error {
	for i := range entries {
		if err := c.enc.AppendEntry(&entries[i]); err != nil {
			return err
		}
	}
	return c.Flush()
}

// AppendEntry appends one entry (the per-record path for replay
// loops).
func (c *Client) AppendEntry(e *weblog.Entry) error { return c.enc.AppendEntry(e) }

// AppendLabel appends one label.
func (c *Client) AppendLabel(l *qualitymon.Label) error { return c.enc.AppendLabel(l) }

// Flush writes any open frame to the connection.
func (c *Client) Flush() error {
	if err := c.enc.Flush(0); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Sync flushes the open frame with an ack request and blocks for the
// server's ack — the barrier that everything sent so far has been
// decoded and handed to the engine.
func (c *Client) Sync() (Ack, error) {
	if err := c.enc.Flush(FlagAckRequest); err != nil {
		return Ack{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Ack{}, err
	}
	for {
		h, payload, err := c.fr.Next()
		if err != nil {
			return Ack{}, fmt.Errorf("wire: waiting for ack: %w", err)
		}
		if _, _, err := c.dec.DecodeFrame(h, payload); err != nil {
			return Ack{}, fmt.Errorf("wire: decoding ack: %w", err)
		}
		if h.Flags&FlagAck != 0 {
			if ack := c.dec.LastAck(); ack.Seen {
				return ack, nil
			}
			return Ack{}, fmt.Errorf("%w: ack frame without ack record", ErrRecord)
		}
	}
}

// Close flushes and closes the connection.
func (c *Client) Close() error {
	flushErr := c.Flush()
	closeErr := c.nc.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
