package wire

import (
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
)

// collector is a Handler that copies what it is handed (the batches
// alias decoder scratch, so retention requires a copy — exactly the
// documented contract).
type collector struct {
	mu      sync.Mutex
	entries []weblog.Entry
	labels  []qualitymon.Label
}

func (c *collector) handler() Handler {
	return Handler{
		Entries: func(es []weblog.Entry) {
			c.mu.Lock()
			c.entries = append(c.entries, es...)
			c.mu.Unlock()
		},
		Labels: func(ls []qualitymon.Label) {
			c.mu.Lock()
			c.labels = append(c.labels, ls...)
			c.mu.Unlock()
		},
	}
}

func (c *collector) snapshot() ([]weblog.Entry, []qualitymon.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]weblog.Entry(nil), c.entries...), append([]qualitymon.Label(nil), c.labels...)
}

// startServer runs a wire server on a listener for addr and returns
// the dialable address.
func startServer(t *testing.T, s *Server, addr string) string {
	t.Helper()
	ln, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			t.Error(err)
		}
	}()
	t.Cleanup(func() { s.Close() })
	if _, ok := ln.(*net.UnixListener); ok {
		return addr
	}
	return ln.Addr().String()
}

func testServerRoundTrip(t *testing.T, addr string) {
	col := &collector{}
	s := NewServer(Config{Handler: col.handler(), Stages: true})
	dialAddr := startServer(t, s, addr)

	c, err := Dial(dialAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wantE, wantL := testEntries(), testLabels()
	if err := c.SendEntries(wantE); err != nil {
		t.Fatal(err)
	}
	for i := range wantL {
		if err := c.AppendLabel(&wantL[i]); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Entries != int64(len(wantE)) || ack.Labels != int64(len(wantL)) {
		t.Errorf("ack %+v, want %d entries %d labels", ack, len(wantE), len(wantL))
	}
	// the ack is the barrier: the handler has already run
	gotE, gotL := col.snapshot()
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("entries through server:\n got %+v\nwant %+v", gotE, wantE)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("labels through server:\n got %+v\nwant %+v", gotL, wantL)
	}

	// the ack reaches the client before the server counts it and closes
	// the frame's ingest span
	snap := s.Snapshot()
	for deadline := time.Now().Add(5 * time.Second); (snap.Acks == 0 || snap.Stages[obs.StageIngest].Count == 0) &&
		time.Now().Before(deadline); snap = s.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	if snap.ConnsTotal != 1 || snap.ConnsActive != 1 {
		t.Errorf("conns %d/%d, want 1/1", snap.ConnsTotal, snap.ConnsActive)
	}
	if snap.Entries != int64(len(wantE)) || snap.Labels != int64(len(wantL)) {
		t.Errorf("snapshot counted %d/%d", snap.Entries, snap.Labels)
	}
	if snap.Acks != 1 || snap.Errors != 0 || snap.Frames < 1 {
		t.Errorf("snapshot %+v", snap)
	}
	if snap.Bytes == 0 {
		t.Error("no bytes counted")
	}
	if snap.Stages[obs.StageWireDecode].Count == 0 {
		t.Error("no wire_decode stage observations despite Stages: true")
	}
	if snap.Stages[obs.StageIngest].Count == 0 {
		t.Error("no ingest stage observations despite Stages: true")
	}
}

func TestServerTCP(t *testing.T) {
	testServerRoundTrip(t, "127.0.0.1:0")
}

func TestServerUnix(t *testing.T) {
	testServerRoundTrip(t, "unix:"+filepath.Join(t.TempDir(), "wire.sock"))
}

func TestServerUnixStaleSocketRemoved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wire.sock")
	ln, err := Listen("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	// leave the socket file behind, as a crashed process would
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	ln2, err := Listen("unix:" + path)
	if err != nil {
		t.Fatalf("stale socket not cleared: %v", err)
	}
	ln2.Close()
}

func TestServerRejectsGarbage(t *testing.T) {
	col := &collector{}
	s := NewServer(Config{Handler: col.handler()})
	addr := startServer(t, s, "127.0.0.1:0")

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte("GET / HTTP/1.1\r\nHost: wrong-protocol\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// the server must cut the connection, not resynchronize
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Error("connection stayed open after garbage")
	}
	nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Snapshot().Errors >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("protocol error never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if es, _ := col.snapshot(); len(es) != 0 {
		t.Errorf("garbage produced %d entries", len(es))
	}
}

func TestServerCloseDrains(t *testing.T) {
	col := &collector{}
	s := NewServer(Config{Handler: col.handler(), DrainGrace: 200 * time.Millisecond})
	addr := startServer(t, s, "127.0.0.1:0")

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries()
	if err := c.SendEntries(want); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// the claim is about a connection the server has: one still in the
	// kernel's accept queue when the listener closes is never served
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().ConnsTotal == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("connection never accepted")
		}
	}
	// Close must deliver the already-written frame before cutting
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := col.snapshot(); len(got) != len(want) {
		t.Errorf("drain delivered %d of %d entries", len(got), len(want))
	}
	if snap := s.Snapshot(); snap.ConnsActive != 0 {
		t.Errorf("%d connections survived Close", snap.ConnsActive)
	}
	// new connections are refused
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Error("listener still accepting after Close")
	}
	c.Close()
}

func TestServerConcurrentClients(t *testing.T) {
	col := &collector{}
	s := NewServer(Config{Handler: col.handler(), Stages: true})
	addr := startServer(t, s, "127.0.0.1:0")

	const clients = 8
	const perClient = 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			e := testEntries()[0]
			for j := 0; j < perClient; j++ {
				e.Timestamp = float64(i*perClient + j)
				if err := c.AppendEntry(&e); err != nil {
					t.Error(err)
					return
				}
			}
			if ack, err := c.Sync(); err != nil {
				t.Error(err)
			} else if ack.Entries != perClient {
				t.Errorf("client %d acked %d entries", i, ack.Entries)
			}
		}(i)
	}
	wg.Wait()
	if got, _ := col.snapshot(); len(got) != clients*perClient {
		t.Errorf("server delivered %d entries, want %d", len(got), clients*perClient)
	}
	if snap := s.Snapshot(); snap.Entries != clients*perClient {
		t.Errorf("snapshot counted %d entries", snap.Entries)
	}
}
