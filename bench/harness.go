package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/obs"
	"vqoe/internal/pipeline"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// Fixed engine layout: the benchmark's numbers must not move with the
// host's core count.
const (
	benchShards  = 2
	benchMailbox = 1024
)

// modelSeed fixes the trained models (qoeserve's default -seed), so
// --seed varies the traffic and nothing else.
const modelSeed = 1

// trainFramework trains the models the way qoeserve does when started
// without model files: encrypted adaptive corpora, 3 folds, 30 trees.
func trainFramework(trainN int) (*core.Framework, error) {
	stallCfg := workload.DefaultConfig(trainN)
	stallCfg.AdaptiveFraction = 1
	stallCfg.Encrypted = true
	stallCfg.Seed = modelSeed
	hasCfg := workload.DefaultConfig(trainN / 2)
	hasCfg.AdaptiveFraction = 1
	hasCfg.Encrypted = true
	hasCfg.Seed = modelSeed + 1
	tcfg := core.DefaultTrainConfig()
	tcfg.CVFolds = 3
	tcfg.Forest.Trees = 30
	fw, _, err := core.TrainFramework(workload.Generate(stallCfg), workload.Generate(hasCfg), tcfg)
	return fw, err
}

// report is what the sink keeps of one OnReport call.
type report struct {
	sub        string
	start, end float64
	stall, rep uint8
	sw         bool
	at         time.Duration // since the round's clock base
}

// sink collects reports from the engine's shard goroutines. reps is
// sized before the round so the timed region never grows it.
type sink struct {
	base time.Time
	mu   sync.Mutex
	reps []report
}

func (s *sink) onReport(r pipeline.SessionReport) {
	at := time.Since(s.base)
	s.mu.Lock()
	s.reps = append(s.reps, report{
		sub: r.Subscriber, start: r.Start, end: r.End,
		stall: uint8(r.Report.Stall), rep: uint8(r.Report.Representation),
		sw: r.Report.SwitchVariance, at: at,
	})
	s.mu.Unlock()
}

// digest is an order-independent fingerprint of a round's reports: the
// wrapping sum of one FNV-1a hash per report.
type digest struct {
	Count int    `json:"count"`
	Sum   string `json:"digest"`
}

func digestOf(reps []report) digest {
	var sum uint64
	var b [19]byte
	for i := range reps {
		r := &reps[i]
		h := fnv.New64a()
		h.Write([]byte(r.sub))
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.start))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.end))
		b[16], b[17], b[18] = r.stall, r.rep, 0
		if r.sw {
			b[18] = 1
		}
		h.Write(b[:])
		sum += h.Sum64()
	}
	return digest{Count: len(reps), Sum: fmt.Sprintf("%016x", sum)}
}

// server is one round's system under test: the pipeline server wired as
// qoeserve wires it, its wire listener and its HTTP surface, both on
// abstract unix sockets (no file is created).
type server struct {
	srv      *pipeline.Server
	ws       *wire.Server
	wireAddr string
	wireDone chan error
	hs       *http.Server
	httpDone chan error
	client   *http.Client
}

var sockSeq atomic.Int64

func abstractAddr() string {
	return fmt.Sprintf("@vqoe-bench-%d-%d", os.Getpid(), sockSeq.Add(1))
}

var discardLogger = func() *slog.Logger {
	l, err := obs.NewLogger(io.Discard, "info", "text")
	if err != nil {
		panic(err)
	}
	return l
}()

// benchEngineConfig is qoeserve's engine configuration at the fixed
// layout.
func benchEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Shards = benchShards
	cfg.Mailbox = benchMailbox
	return cfg
}

func newServer(fw *core.Framework, onReport func(pipeline.SessionReport)) (*server, error) {
	s := &server{}
	s.srv = pipeline.NewServerOpts(fw, pipeline.Options{
		Engine:   benchEngineConfig(),
		Logger:   discardLogger,
		OnReport: onReport,
	})
	s.ws = s.srv.NewWireServer()
	s.wireAddr = abstractAddr()
	wln, err := wire.Listen("unix:" + s.wireAddr)
	if err != nil {
		s.srv.Drain()
		return nil, fmt.Errorf("wire listen: %w", err)
	}
	s.wireDone = make(chan error, 1)
	go func() { s.wireDone <- s.ws.Serve(wln) }()

	httpAddr := abstractAddr()
	hln, err := net.Listen("unix", httpAddr)
	if err != nil {
		_ = s.ws.Close()
		<-s.wireDone
		s.srv.Drain()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.httpDone = make(chan error, 1)
	go func() { s.httpDone <- s.hs.Serve(hln) }()
	s.client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", httpAddr)
		},
		MaxConnsPerHost: 1,
	}}
	return s, nil
}

// processed is how many entries the engine's shard workers have taken
// so far.
func processed(eng *engine.Engine) int64 {
	var n int64
	for _, sh := range eng.Snapshot() {
		n += sh.Events
	}
	return n
}

// waitProcessed polls until the shard workers have taken want entries.
func waitProcessed(eng *engine.Engine, want int) error {
	deadline := time.Now().Add(60 * time.Second)
	for processed(eng) < int64(want) {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine took %d of %d entries", processed(eng), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (s *server) processed() int64 { return processed(s.srv.Engine()) }

func (s *server) open() int {
	n := 0
	for _, sh := range s.srv.Engine().Snapshot() {
		n += sh.Open
	}
	return n
}

// stop closes the listeners in qoeserve's shutdown order and drains the
// engine; the drained sessions reach the sink like any other report.
func (s *server) stop() (drain time.Duration, err error) {
	// Serve's error is dropped: a listener that failed mid-round shows
	// as write errors, and one closed before Serve registered it (set-up
	// builds a server only to tear it down) is not a fault
	_ = s.ws.Close()
	<-s.wireDone
	s.client.CloseIdleConnections()
	_ = s.hs.Close()
	if e := <-s.httpDone; e != nil && !errors.Is(e, http.ErrServerClosed) {
		err = fmt.Errorf("http serve: %w", e)
	}
	t0 := time.Now()
	s.srv.Drain()
	return time.Since(t0), err
}

// scrapeEndpoints is the read mix, cycled in this order.
var scrapeEndpoints = []string{
	"/metrics", "/debug/cohorts", "/debug/sessions",
	"/debug/flight", "/debug/alerts", "/debug/timeseries",
}

// scrapeSample is one HTTP read: which of scrapeEndpoints, and how long
// from request sent to body fully read.
type scrapeSample struct {
	Endpoint int     `json:"endpoint"`
	Ms       float64 `json:"ms"`
}

// scrape issues one GET and reads the whole body.
func (s *server) scrape(path string) (ms float64, body []byte, err error) {
	t0 := time.Now()
	resp, err := s.client.Get("http://bench" + path)
	if err != nil {
		return 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ms = float64(time.Since(t0)) / 1e6
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return ms, body, err
}

// stealTime is the CPU time the hypervisor has withheld from this
// guest so far, summed over its CPUs (the steal column of /proc/stat's
// first line, in 10 ms ticks). Zero where the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// lateLimit is how late the paced generator's p99 frame may leave
// before the run is flagged: its latencies then describe the generator
// as much as the server. A late frame is not a failed operation — this
// host stalls the whole process for tens of milliseconds a few times a
// minute whatever the offered rate — and lag is timed from a frame's
// due time, so the wait a stall imposes on later frames is counted.
const lateLimit = 5 * time.Millisecond

// closedScrapeCycles is how many passes over the endpoints a closed-loop
// round makes once its entries are processed.
const closedScrapeCycles = 3

// roundOpts selects what a round records beyond the end-to-end numbers.
type roundOpts struct {
	id    int
	trace *tracer // nil: tracing off; on, the round also samples mailbox depth
	// program, when set, receives the program's own counters read from
	// /metrics once the round's entries are processed.
	program map[string]float64
}

// round is one round's measurements.
type round struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	Steal float64 `json:"steal_s"`
	// ProbeNs is the host-speed probe before the first byte and after the
	// drain (see hostspeed.go).
	ProbeNs       [2]float64     `json:"probe_ns"`
	Entries       int            `json:"entries"`
	AllocBytes    uint64         `json:"alloc_bytes"`
	Allocs        uint64         `json:"allocs"`
	ReportsTimed  int            `json:"reports_timed"`
	Reports       int            `json:"reports"`
	LagP50        float64        `json:"lag_p50_ms"`
	LagTail       float64        `json:"lag_tail_ms"`
	LagN          int            `json:"lag_n"`
	Scrapes       []scrapeSample `json:"scrapes"`
	LateP50       float64        `json:"late_p50_ms,omitempty"`
	LateP99       float64        `json:"late_p99_ms,omitempty"`
	StallAcc      float64        `json:"stall_acc"`
	RepAcc        float64        `json:"rep_acc"`
	Digest        digest         `json:"digest"`
	Failed        int            `json:"failed"`
	Attempted     int            `json:"attempted"`
	GCCycles      uint32         `json:"gc_cycles"`
	GCPauseMs     float64        `json:"gc_pause_ms"`
	HeapInuseMB   float64        `json:"heap_inuse_mb"`
	DrainMs       float64        `json:"drain_ms"`
	WriteBlocked  float64        `json:"write_blocked_share,omitempty"`
	MailboxP50    float64        `json:"mailbox_p50,omitempty"`
	MailboxMax    float64        `json:"mailbox_max,omitempty"`
	Dropped       int64          `json:"dropped"`
	EvictedShare  float64        `json:"evicted_share"`
	FailureDetail []string       `json:"failures,omitempty"`
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func (r *round) fail(n int, format string, a ...any) {
	r.Failed += n
	if len(r.FailureDetail) < 8 {
		r.FailureDetail = append(r.FailureDetail, fmt.Sprintf(format, a...))
	}
}

// runRound builds a fresh server, drives one round of the stream
// through it and verifies what came out against want (nil on the
// reference pass itself). The timed region runs from the first byte
// written until the shard workers have taken every entry sent.
func runRound(fw *core.Framework, st *stream, want *digest, o roundOpts) (*round, error) {
	sk := &sink{reps: make([]report, 0, st.maxSessions+1024)}
	sv, err := newServer(fw, sk.onReport)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = sv.stop()
		}
	}()
	res := &round{Entries: st.entries}

	conns := make([]net.Conn, len(st.conns))
	for c := range conns {
		nc, err := net.Dial("unix", sv.wireAddr)
		if err != nil {
			return nil, fmt.Errorf("dial wire: %w", err)
		}
		defer nc.Close()
		conns[c] = nc
	}
	// stamps[c][i] is when frame i of connection c was due: its write
	// start in a closed loop, its scheduled time in an open one.
	stamps := make([][]time.Duration, len(conns))
	ends := make([][]time.Duration, len(conns))
	var late []float64
	for c := range conns {
		stamps[c] = make([]time.Duration, len(st.conns[c].frames))
		if o.trace != nil {
			ends[c] = make([]time.Duration, len(st.conns[c].frames))
		}
	}
	paced := st.pacedRate > 0
	interval := time.Duration(0)
	if paced {
		interval = time.Duration(float64(frameEntries) / st.pacedRate * float64(time.Second))
		late = make([]float64, len(st.conns[0].frames))
	}
	scrapes := make([]scrapeSample, 0, 4096)
	var scrapeSpans []span
	scrapeErrs := 0
	// scrapeOnce reads the k-th page of the cycle; only one goroutine at
	// a time calls it (the paced round's scraper, or this one afterwards)
	scrapeOnce := func(k int) {
		e := k % len(scrapeEndpoints)
		t0 := time.Since(sk.base)
		ms, _, err := sv.scrape(scrapeEndpoints[e])
		if err != nil {
			scrapeErrs++
			return
		}
		scrapes = append(scrapes, scrapeSample{e, ms})
		if o.trace != nil {
			scrapeSpans = append(scrapeSpans, span{Name: "scrape " + scrapeEndpoints[e], Start: t0, End: time.Since(sk.base)})
		}
	}
	writeErrs := make([]error, len(conns))

	var depth []float64
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	if o.trace != nil {
		depth = make([]float64, 0, 1<<16)
		sampleWG.Add(1)
		go func() {
			defer sampleWG.Done()
			tk := time.NewTicker(time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-stopSample:
					return
				case <-tk.C:
					for _, sh := range sv.srv.Engine().Snapshot() {
						if len(depth) < cap(depth) {
							depth = append(depth, float64(sh.Mailbox))
						}
					}
				}
			}
		}()
	}

	runtime.GC()
	if res.ProbeNs[0], err = probeHost(); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	steal0 := stealTime()
	base := time.Now()
	sk.base = base

	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs, nc := &st.conns[c], conns[c]
			for i := 0; i < len(cs.frames); i++ {
				now := time.Since(base)
				if paced {
					due := time.Duration(i) * interval
					if d := due - now; d > 0 {
						time.Sleep(d)
						now = time.Since(base)
					}
					late[i] = float64(now-due) / 1e6
					stamps[c][i] = due
				} else {
					stamps[c][i] = now
				}
				if _, err := nc.Write(cs.frames[i]); err != nil {
					writeErrs[c] = err
					return
				}
				if ends[c] != nil {
					ends[c][i] = time.Since(base)
				}
			}
		}(c)
	}
	scrapeStop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if paced {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			every := st.scrapeEvery
			for k := 0; ; k++ {
				if d := time.Duration(k)*every - time.Since(base); d > 0 {
					select {
					case <-scrapeStop:
						return
					case <-time.After(d):
					}
				}
				select {
				case <-scrapeStop:
					return
				default:
				}
				scrapeOnce(k)
			}
		}()
	}
	wg.Wait()
	written := time.Since(base)
	sent := int64(0)
	for c := range conns {
		if writeErrs[c] == nil {
			sent += int64(st.conns[c].entries)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for sv.processed() < sent && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	wall := time.Since(base)
	cpu1 := cpuTime()
	steal := stealTime() - steal0
	runtime.ReadMemStats(&m1)
	close(scrapeStop)
	scrapeWG.Wait()
	close(stopSample)
	sampleWG.Wait()

	res.Wall = wall.Seconds()
	res.CPU = (cpu1 - cpu0).Seconds()
	res.Steal = steal.Seconds()
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Allocs = m1.Mallocs - m0.Mallocs
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	res.HeapInuseMB = float64(m1.HeapInuse) / (1 << 20)
	res.Attempted = st.entries
	for c, err := range writeErrs {
		if err != nil {
			res.fail(st.conns[c].entries, "connection %d: write: %v", c, err)
		}
	}
	if got := sv.processed(); got != int64(st.entries) {
		res.fail(absInt(st.entries-int(got)), "server counted %d of %d entries", got, st.entries)
	}

	// reads against the state the round built: the only reads a
	// closed-loop round makes, so they never compete with its writes
	if !paced {
		for k := 0; k < closedScrapeCycles*len(scrapeEndpoints); k++ {
			scrapeOnce(k)
		}
	}
	res.Scrapes = scrapes
	res.Attempted += len(scrapes) + scrapeErrs
	if scrapeErrs > 0 {
		res.fail(scrapeErrs, "%d scrapes failed", scrapeErrs)
	}
	if o.program != nil {
		if _, body, err := sv.scrape("/metrics"); err == nil {
			programCounters(body, o.program)
		}
	}
	var evicted, reportsNow int64
	for _, sh := range sv.srv.Engine().Snapshot() {
		res.Dropped += sh.Dropped
		evicted += sh.Evicted
		reportsNow += sh.Reports
	}
	if reportsNow > 0 {
		res.EvictedShare = float64(evicted) / float64(reportsNow)
	}

	// Sync: the ack must count everything this connection sent
	syncStart := time.Since(base)
	for c, nc := range conns {
		if writeErrs[c] != nil {
			continue
		}
		res.Attempted++
		ack, err := wire.NewClient(nc).Sync()
		if err != nil {
			res.fail(1, "connection %d: sync: %v", c, err)
		} else if ack.Entries != int64(st.conns[c].entries) {
			res.fail(1, "connection %d: ack counts %d entries, sent %d", c, ack.Entries, st.conns[c].entries)
		}
		nc.Close()
	}
	syncEnd := time.Since(base)
	stopped = true
	drain, err := sv.stop()
	if err != nil {
		return nil, err
	}
	drainEnd := time.Since(base)
	res.DrainMs = float64(drain) / 1e6
	// the drained server is garbage now; collect it first, or the probe
	// shares the CPUs with the collector
	runtime.GC()
	if res.ProbeNs[1], err = probeHost(); err != nil {
		return nil, err
	}

	// verdicts: count, delay, accuracy, fingerprint
	reps := sk.reps
	res.Reports = len(reps)
	res.Digest = digestOf(reps)
	lags := make([]float64, 0, len(reps))
	var stallOK, repOK, matched int
	for i := range reps {
		r := &reps[i]
		if r.at <= wall {
			res.ReportsTimed++
			c := connOf(r.sub, len(conns))
			f := st.conns[c].frameOf(r.end)
			lags = append(lags, float64(r.at-stamps[c][f])/1e6)
		}
		if t, ok := st.labelOf(r.sub, r.start, r.end); ok {
			matched++
			if uint8(t.Stall) == r.stall {
				stallOK++
			}
			if uint8(t.Rep) == r.rep {
				repOK++
			}
		}
	}
	res.LagN = len(lags)
	if len(lags) > 0 {
		res.LagP50 = percentile(lags, 50)
		res.LagTail = percentile(lags, lagTailPct)
	}
	if matched > 0 {
		res.StallAcc = float64(stallOK) / float64(matched)
		res.RepAcc = float64(repOK) / float64(matched)
	}
	res.Attempted += len(reps)
	if matched != len(reps) {
		res.fail(len(reps)-matched, "%d of %d reports match no generated session", len(reps)-matched, len(reps))
	}
	if want != nil {
		if res.Digest.Count != want.Count {
			res.fail(absInt(want.Count-res.Digest.Count), "%d reports, reference pass made %d", res.Digest.Count, want.Count)
		}
	}
	if paced {
		res.LateP50 = percentile(late, 50)
		res.LateP99 = percentile(late, 99)
	}
	if len(depth) > 0 {
		res.MailboxP50 = percentile(depth, 50)
		res.MailboxMax = percentile(depth, 100)
	}

	if o.trace != nil {
		root := o.trace.add(span{Name: "round " + st.name, Start: 0, End: drainEnd, Parent: -1, Round: o.id})
		for c := range conns {
			var busy, floor time.Duration
			durs := make([]float64, len(ends[c]))
			for i := range ends[c] {
				start := stamps[c][i]
				if paced {
					start += time.Duration(late[i] * 1e6)
				}
				o.trace.add(span{Name: "write", Start: start, End: ends[c][i], Parent: root, Round: o.id, Tid: 1 + c})
				durs[i] = float64(ends[c][i] - start)
				busy += ends[c][i] - start
			}
			// the fastest tenth of writes is what a copy into the socket
			// costs; the rest of each write is time blocked on the server
			floor = time.Duration(percentile(durs, 10))
			var blocked time.Duration
			for _, d := range durs {
				if time.Duration(d) > floor {
					blocked += time.Duration(d) - floor
				}
			}
			if busy > 0 {
				res.WriteBlocked += float64(blocked) / float64(busy) / float64(len(conns))
			}
		}
		o.trace.add(span{Name: "processed-wait", Start: written, End: wall, Parent: root, Round: o.id})
		for _, s := range scrapeSpans {
			s.Parent, s.Round, s.Tid = root, o.id, 1+len(conns)
			o.trace.add(s)
		}
		o.trace.add(span{Name: "Sync", Start: syncStart, End: syncEnd, Parent: root, Round: o.id})
		o.trace.add(span{Name: "Drain", Start: drainEnd - drain, End: drainEnd, Parent: root, Round: o.id})
		for i := range reps {
			o.trace.add(span{Name: "report", Start: reps[i].at, End: reps[i].at, Parent: root, Round: o.id, Tid: 2 + len(conns), Instant: true})
		}
	}
	return res, nil
}

// heapRound sends the stream's state-cost probe through a fresh server
// and reads how much heap each session left open holds: HeapAlloc after
// every entry is processed, minus the reading before the first byte,
// over the open-session count.
func heapRound(fw *core.Framework, st *stream) (bytesPerOpen float64, err error) {
	st = st.probe
	sv, err := newServer(fw, nil)
	if err != nil {
		return 0, err
	}
	defer func() { _, _ = sv.stop() }()
	conns := make([]net.Conn, len(st.conns))
	for c := range conns {
		if conns[c], err = net.Dial("unix", sv.wireAddr); err != nil {
			return 0, fmt.Errorf("dial wire: %w", err)
		}
		defer conns[c].Close()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, f := range st.conns[c].frames {
				if _, errs[c] = conns[c].Write(f); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, fmt.Errorf("heap round write: %w", e)
		}
	}
	if err := waitProcessed(sv.srv.Engine(), st.entries); err != nil {
		return 0, fmt.Errorf("heap round: %w", err)
	}
	// two collections: the second frees what the first one's sync.Pool
	// clearing released
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	open := sv.open()
	if open == 0 {
		return 0, fmt.Errorf("heap round: no session open after %d entries", st.entries)
	}
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(open), nil
}
