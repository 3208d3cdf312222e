package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// Handler receives the decoded batches. The callbacks run on the
// connection's goroutine, one frame at a time; the slices they are
// handed alias per-connection scratch and must not be retained past
// the call (the engine's Ingest/Feed/Offer copy, so handing them
// straight through is safe). Entries runs before Labels for a frame
// that carries both, mirroring the HTTP ingest path. A nil callback
// drops that record type.
//
// Recs, when set, is the fused door and takes the listener's entry
// records instead of Entries: connections decode frames straight into
// routed recs (see RecSink) and build no weblog.Entry. The service always
// sets it; Entries and the listener's Entry decoder behind it are left for
// bench/layers.go and tests, until ROADMAP "Benchmark debts" (b) re-points them.
type Handler struct {
	Entries func([]weblog.Entry)
	Labels  func([]qualitymon.Label)
	Recs    RecSink
}

// Config tunes the listener subsystem.
type Config struct {
	// Handler receives every decoded batch.
	Handler Handler
	// Logger, when set, logs connection lifecycle and protocol errors.
	Logger *slog.Logger
	// Stages turns on per-connection stage timings (wire_decode per
	// frame plus the end-to-end ingest span). Off by default: with it
	// off the read loop takes no clock readings.
	Stages bool
	// DrainGrace is how long Close lets a connection finish its
	// in-flight frame before cutting the socket. Default 500ms.
	DrainGrace time.Duration
}

// Server is the persistent binary-ingest listener. One Server can
// drive several listeners (typically one TCP and one UDS); every
// accepted connection gets its own decoder, scratch, and stage set,
// so connections share nothing on the hot path but the handler they
// feed.
type Server struct {
	cfg Config

	connsTotal atomic.Int64
	frames     atomic.Int64
	entries    atomic.Int64
	labels     atomic.Int64
	bytes      atomic.Int64
	errs       atomic.Int64
	acks       atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	done      obs.StageSetSnapshot // merged stages of closed conns
	closed    bool

	wg sync.WaitGroup
}

// feedWindow is how many frames one fused-door connection may have in
// the engine — mailed, not yet processed by every shard they touch —
// before its reader waits for one to finish. Whenever a shard worker
// loses the CPU for a scheduler quantum, a reader that costs a third of
// what the shards do would otherwise run hundreds of frames ahead
// (each pinning a routing slab and queueing in front of every verdict),
// and nothing is gained by it: 32 frames are 8k entries, a few
// milliseconds of shard work, and the reader refills them faster than
// the shards drain them. The wait counts into the connection's ingest
// stage, like a full mailbox does.
const feedWindow = 32

type serverConn struct {
	nc     net.Conn
	stages *obs.StageSet
}

// NewServer returns a server ready to Serve listeners.
func NewServer(cfg Config) *Server {
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 500 * time.Millisecond
	}
	return &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
	}
}

// Listen opens a listener for a wire address: "unix:/path/to.sock"
// (removing a stale socket file first) or a TCP host:port.
func Listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if _, err := os.Stat(path); err == nil {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wire: removing stale socket: %w", err)
			}
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// Serve accepts connections on ln until the listener fails or the
// server is closed (then it returns nil). Call it on its own
// goroutine per listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &serverConn{nc: nc}
		if s.cfg.Stages {
			c.stages = obs.NewStageSet()
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.connsTotal.Add(1)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(c)
	}
}

// Close drains the server: listeners stop accepting, every open
// connection gets DrainGrace to finish the frame it is reading, and
// Close returns once all connection goroutines have exited. Batches
// decoded before the cut are always handed to the handler, so a
// client that stopped sending sees everything it wrote delivered.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	deadline := time.Now().Add(s.cfg.DrainGrace)
	for c := range s.conns {
		_ = c.nc.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) handle(c *serverConn) {
	defer s.wg.Done()
	log := s.cfg.Logger
	if log != nil {
		log.Debug("wire connection open", "remote", remoteName(c.nc))
	}
	var connEntries, connLabels int64
	fr := NewFrameReader(bufio.NewReaderSize(c.nc, 64<<10))
	// one decoder per connection, by door
	var dec *Decoder
	var recDec *recDecoder
	var window chan struct{}
	var done func()
	if sink := s.cfg.Handler.Recs; sink != nil {
		recDec = newRecDecoder(sink, internMax)
		window = make(chan struct{}, feedWindow) // one slot per frame in the engine
		done = func() { <-window }
	} else {
		dec = NewDecoder()
	}
	var bw *bufio.Writer
	var enc *Encoder
	for {
		h, payload, err := fr.Next()
		if err != nil {
			if err != io.EOF {
				s.errs.Add(1)
				if log != nil {
					log.Warn("wire connection failed", "remote", remoteName(c.nc), "err", err)
				}
			}
			break
		}
		timed := c.stages != nil
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		var entries []weblog.Entry
		var recs []sessionizer.Rec
		var shardOf []uint32
		var labels []qualitymon.Label
		if recDec != nil {
			recs, shardOf, labels, err = recDec.DecodeFrame(h, payload)
		} else {
			entries, labels, err = dec.DecodeFrame(h, payload)
		}
		if timed {
			c.stages.ObserveSince(obs.StageWireDecode, t0)
		}
		if err != nil {
			// a framing error poisons the rest of the stream: close
			// rather than resynchronize on attacker-influenced input
			s.errs.Add(1)
			if log != nil {
				log.Warn("wire frame rejected", "remote", remoteName(c.nc), "err", err)
			}
			break
		}
		s.frames.Add(1)
		s.bytes.Add(int64(HeaderLen + h.Len))
		if len(recs) > 0 {
			window <- struct{}{} // done takes it back
			s.cfg.Handler.Recs.FeedRecs(recs, shardOf, done)
		} else if len(entries) > 0 && s.cfg.Handler.Entries != nil {
			s.cfg.Handler.Entries(entries)
		}
		if len(labels) > 0 && s.cfg.Handler.Labels != nil {
			s.cfg.Handler.Labels(labels)
		}
		n := int64(len(entries) + len(recs))
		connEntries += n
		connLabels += int64(len(labels))
		s.entries.Add(n)
		s.labels.Add(int64(len(labels)))
		if h.Flags&FlagAckRequest != 0 {
			if bw == nil {
				bw = bufio.NewWriter(c.nc)
				enc = NewEncoder(bw)
			}
			if enc.appendAck(connEntries, connLabels) != nil ||
				enc.Flush(FlagAck) != nil || bw.Flush() != nil {
				break
			}
			s.acks.Add(1)
		}
		if timed {
			c.stages.ObserveSince(obs.StageIngest, t0)
		}
	}
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	if c.stages != nil {
		s.done.Merge(c.stages.Snapshot())
	}
	s.mu.Unlock()
	if log != nil {
		log.Debug("wire connection closed", "remote", remoteName(c.nc),
			"entries", connEntries, "labels", connLabels)
	}
}

// remoteName labels a connection for logs (UDS peers have empty
// addresses).
func remoteName(nc net.Conn) string {
	if ra := nc.RemoteAddr(); ra != nil && ra.String() != "" && ra.String() != "@" {
		return ra.String()
	}
	return nc.LocalAddr().Network()
}

// Snapshot is a point-in-time view of the listener subsystem, the
// source for the vqoe_wire_* metric families.
type Snapshot struct {
	// ConnsTotal counts connections ever accepted; ConnsActive is the
	// current gauge.
	ConnsTotal, ConnsActive int64
	// Frames, Entries, Labels, Bytes count decoded protocol volume.
	Frames, Entries, Labels, Bytes int64
	// Errors counts connections terminated by protocol or transport
	// faults; Acks counts ack frames answered.
	Errors, Acks int64
	// Stages merges every connection's stage timings (wire_decode and
	// the end-to-end ingest span). All zero unless Config.Stages.
	Stages obs.StageSetSnapshot
}

// Snapshot reads the server's counters and merged per-connection
// stage timings. Safe at any time.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		ConnsTotal: s.connsTotal.Load(),
		Frames:     s.frames.Load(),
		Entries:    s.entries.Load(),
		Labels:     s.labels.Load(),
		Bytes:      s.bytes.Load(),
		Errors:     s.errs.Load(),
		Acks:       s.acks.Load(),
	}
	s.mu.Lock()
	snap.ConnsActive = int64(len(s.conns))
	snap.Stages = s.done
	for c := range s.conns {
		if c.stages != nil {
			snap.Stages.Merge(c.stages.Snapshot())
		}
	}
	s.mu.Unlock()
	return snap
}
