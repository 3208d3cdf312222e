package engine

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// message is one unit of shard work. Exactly one variant is meaningful
// per message; reply, when non-nil, receives the reports the message
// produced (otherwise they go to the sink). sessions is the
// observability snapshot request: the worker answers with its open
// flow-table view and processes nothing else for that message.
//
// at lists the positions of the shard's recs in slab's batch, in
// arrival order; the shard reads them in place, and only until it
// releases the slab at the end of the message.
type message struct {
	at       []uint32
	slab     *recSlab
	advance  float64 // >0: eviction sweep at this capture-clock time
	flush    bool    // close everything (drain)
	reply    chan []Report
	sessions chan ShardSessions // /debug/sessions snapshot request
}

// shard owns one slice of the flow table. Its state is touched only by
// its worker goroutine — the hot path takes no locks — except the
// atomic counters, which Snapshot reads from outside, and the
// observability types (stage histograms, trace ring), which are built
// for concurrent observation.
type shard struct {
	id      int
	mail    chan message
	fw      *core.Framework
	tracker *sessionizer.ColTracker
	sink    func(Report)

	// resolve, cohortOf and labelOf map interned IDs back to their
	// strings, keys (in place) and rendered cohort labels (the engine
	// interner's lock-free read side).
	resolve  func(uint32) string
	cohortOf func(uint32) *cohort.Key
	labelOf  func(uint32) string

	minChunks  int
	evictSlack float64
	sweepEvery float64

	// observability (any of these may be nil: fully off, or partially
	// attached — every path below nil-checks before paying for an
	// event). stages and tracer are the shard's slots in the engine
	// observer; log is shared.
	stages *obs.StageSet
	tracer *obs.Tracer
	log    *slog.Logger

	// quality, when non-nil, is the model-quality monitor: assess feeds
	// it every assessed session (into this shard's accumulator set) and
	// tracks the session for delayed ground-truth matching.
	quality *qualitymon.Monitor

	// cohorts, when non-nil, folds every assessed session's MOS into
	// its cohort's stripe of the fleet rollup.
	cohorts *cohort.Rollup

	// flight, when non-nil, is this shard's stripe of the session
	// flight recorder: every assessed session runs the tail-sampling
	// decision, and retained ones keep their full event timeline.
	flight *flight.ShardRecorder

	// worker-goroutine state
	highWater float64
	lastSweep float64

	// per-shard scratch for the featurize→predict loop: the worker
	// goroutine owns these exclusively, so steady-state batches reuse
	// them instead of allocating (core.AnalyzeScratch carries the
	// projection/distribution buffers down through the forests, and the
	// closed/kept/report buffers recycle across messages).
	scratch   core.AnalyzeScratch
	sobsBuf   []features.SessionObs
	closedBuf []sessionizer.ColClosed
	keptBuf   []sessionizer.ColClosed
	outBuf    []Report

	// traceBuf collects the message's lifecycle events in order; they
	// enter the tracer's ring under one lock (flushTrace) before the
	// message's reports are handed on, not under one lock per event.
	traceBuf []obs.SpanEvent

	// counters/gauges read by Snapshot
	open       atomic.Int64
	storeBytes atomic.Int64
	events     atomic.Int64
	dropped    atomic.Int64
	reports    atomic.Int64
	evicted    atomic.Int64

	// lastWork is the wall-clock time (unix nanos) this worker last
	// finished a message — the freshness watchdog's liveness tap. It
	// reuses the clock reading the stage histograms already take, so
	// it updates only on instrumented engines (cfg.Obs attached) and
	// the uninstrumented hot path stays free of clock calls.
	lastWork atomic.Int64
}

func newShard(id int, fw *core.Framework, cfg Config, sink func(Report), in *interner) *shard {
	tcfg := sessionizer.Config{IdleGap: cfg.IdleGapSec, PageBoundary: true}
	if fw != nil {
		// the flow table stores only what this framework's close path
		// reads, as running extremes where that is all it reads
		tcfg.Layout = fw.Layout()
	}
	s := &shard{
		id:         id,
		mail:       make(chan message, cfg.Mailbox),
		fw:         fw,
		tracker:    sessionizer.NewColTracker(tcfg),
		sink:       sink,
		resolve:    in.name,
		cohortOf:   in.cohortKey,
		labelOf:    in.cohortLabel,
		minChunks:  cfg.MinChunks,
		evictSlack: cfg.EvictSlackSec,
		sweepEvery: cfg.SweepEverySec,
		lastSweep:  -1e18,
		stages:     cfg.Obs.Stages(id),
		tracer:     cfg.Obs.Tracer(id),
		log:        cfg.Obs.Logger(),
	}
	s.tracker.Resolve = in.name
	s.quality = cfg.Quality
	s.cohorts = cfg.Cohorts
	s.flight = cfg.Flight.Shard(id) // nil when recording is off
	if s.tracer != nil {
		s.tracker.OnOpen = func(sub uint32, start float64) {
			ev := s.event()
			ev.Kind, ev.Shard, ev.TS, ev.Start, ev.Subscriber = obs.EvOpen, int32(id), start, start, in.name(sub)
		}
	}
	return s
}

// traceBatchMax bounds traceBuf: a wire-sized message (256 entries,
// most of them media chunks) stays under it and pays one ring lock; a
// sweep that closes thousands of sessions at once flushes every
// traceBatchMax events instead of growing the buffer without limit
// (16 KB per shard at 64 bytes an event).
const traceBatchMax = 256

// event queues one zero lifecycle event for the message's flush and
// returns it for the caller to fill in place (DESIGN §13); the pointer
// is valid until the next event call. Callers have checked
// s.tracer != nil.
func (s *shard) event() *obs.SpanEvent {
	if len(s.traceBuf) == traceBatchMax {
		s.flushTrace()
	}
	s.traceBuf = append(s.traceBuf, obs.SpanEvent{})
	return &s.traceBuf[len(s.traceBuf)-1]
}

// flushTrace moves the queued events into the tracer's ring, in order,
// under one lock.
func (s *shard) flushTrace() {
	s.tracer.RecordBatch(s.traceBuf)
	s.traceBuf = s.traceBuf[:0]
}

func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for msg := range s.mail {
		s.handle(msg)
	}
}

// handle processes one message on the worker goroutine: push the
// sub-batch through the flow table, run whatever sweeps are due, assess
// the sessions that closed, and hand their reports on.
func (s *shard) handle(msg message) {
	if msg.sessions != nil {
		msg.sessions <- ShardSessions{
			Shard:      s.id,
			HighWater:  s.highWater,
			StoreBytes: s.tracker.StoreBytes(),
			Sessions:   s.tracker.OpenSnapshot(),
		}
		return
	}
	timed := s.stages != nil
	var tIngest, t0 time.Time
	if timed {
		tIngest = time.Now()
		t0 = tIngest
	}
	closed := s.closedBuf[:0]
	var recs []sessionizer.Rec
	at := msg.at
	if len(at) > 0 {
		recs = msg.slab.recs
		// hoisted per-batch accounting: one counter add for the
		// whole share instead of one per entry
		s.events.Add(int64(len(at)))
	}
	traced := s.tracer != nil
	s.tracker.Touch(recs, at)
	for _, p := range at {
		r := &recs[p]
		n := len(closed)
		if closed = s.tracker.PushInto(r, closed); len(closed) > n {
			s.traceClosed(obs.EvClose, r.Ts, &closed[n])
		}
		if traced && r.Kind == weblog.HostMedia {
			ev := s.event()
			ev.Kind, ev.Shard, ev.TS, ev.Subscriber = obs.EvChunk, int32(s.id), r.Ts, s.resolve(r.Sub)
		}
		if r.Ts > s.highWater {
			s.highWater = r.Ts
		}
	}
	if timed && len(at) > 0 {
		s.stages.ObserveSince(obs.StageSessionize, t0)
	}
	// idle-eviction clock: sweep when event time has advanced
	// enough, lagging the horizon by the configured slack so
	// bounded cross-feeder skew cannot close a live session early.
	if s.sweepEvery >= 0 && s.highWater-s.lastSweep >= s.sweepEvery {
		closed = s.sweep(s.highWater-s.evictSlack, closed)
		s.lastSweep = s.highWater
	}
	if msg.advance > 0 {
		closed = s.sweep(msg.advance, closed)
		if msg.advance > s.highWater {
			s.highWater = msg.advance
		}
	}
	if msg.flush {
		n := len(closed)
		closed = s.tracker.FlushInto(closed)
		fl := closed[n:]
		for i := range fl {
			s.traceClosed(obs.EvClose, fl[i].End, &fl[i])
		}
		if s.log != nil {
			s.log.Debug("shard drained", "shard", s.id, "flushed", len(fl), "high_water", s.highWater)
		}
	}
	s.open.Store(int64(s.tracker.Open()))
	s.storeBytes.Store(int64(s.tracker.StoreBytes()))

	// reports sent to a reply channel escape this goroutine before
	// the next message is processed, so only the sink path may hand
	// out the reusable buffer
	out := s.assess(closed, msg.reply == nil)
	s.closedBuf = closed[:0]
	s.reports.Add(int64(len(out)))
	if traced {
		s.flushTrace()
	}
	if msg.reply != nil {
		msg.reply <- out
	} else if s.sink != nil {
		for _, r := range out {
			s.sink(r)
		}
	}
	if msg.slab != nil {
		msg.slab.release()
	}
	if timed {
		s.stages.ObserveSince(obs.StageIngest, tIngest)
		s.lastWork.Store(tIngest.UnixNano())
	}
}

// sweep evicts sessions idle at the given horizon, appending them to
// closed and recording them in the eviction counter, the lifecycle
// trace, and the shard log.
func (s *shard) sweep(horizon float64, closed []sessionizer.ColClosed) []sessionizer.ColClosed {
	n := len(closed)
	closed = s.tracker.AdvanceInto(horizon, closed)
	ev := closed[n:]
	if len(ev) == 0 {
		return closed
	}
	s.evicted.Add(int64(len(ev)))
	for i := range ev {
		s.traceClosed(obs.EvEvict, ev[i].End, &ev[i])
	}
	if s.log != nil {
		s.log.Debug("idle sweep evicted sessions",
			"shard", s.id, "evicted", len(ev), "horizon", horizon, "high_water", s.highWater)
	}
	return closed
}

// traceClosed queues one session-lifecycle event if tracing is
// attached; the subscriber string is resolved only on that path.
func (s *shard) traceClosed(kind obs.EventKind, ts float64, c *sessionizer.ColClosed) {
	if s.tracer == nil {
		return
	}
	ev := s.event()
	ev.Kind, ev.Shard, ev.TS = kind, int32(s.id), ts
	ev.Start, ev.End, ev.Subscriber, ev.Chunks = c.Start, c.End, s.resolve(c.Sub), int32(len(c.Chunks))
}

// assess turns the sessions a message closed into reports via one
// batched forest pass, suppressing signalling-only fragments, and is
// the one place an assessed session reaches its consumers: the quality
// monitor, the cohort rollup, the flight recorder and the lifecycle
// trace each see it in the report loop below. With stage histograms
// attached it also times feature extraction and the forest/CUSUM
// inference (one observation each per batch). When reuse is true the
// returned slice aliases the shard's report buffer and is only valid
// until the next assess call — the sink path consumes it immediately,
// while reply paths need a fresh slice.
//
// Chunk-buffer ownership: each closed session's chunk buffer (filled
// from the flow's pages at close, arrival order) plus the sorted
// featurization copy are recycled here once the session is
// fully consumed — flight retention copies chunks and projected vectors
// into its own store synchronously inside Retain, so nothing references
// either buffer or the batch scratch after the report loop.
func (s *shard) assess(closed []sessionizer.ColClosed, reuse bool) []Report {
	if len(closed) == 0 {
		return nil
	}
	// the featurize stage starts here — one observation per batch,
	// closed inside AnalyzeBatchSince after the statistics pass
	var t0 time.Time
	if s.stages != nil {
		t0 = time.Now()
	}
	sobs := s.sobsBuf[:0]
	kept := s.keptBuf[:0]
	for i := range closed {
		c := &closed[i]
		if len(c.Chunks) < s.minChunks {
			// a fragment: discarded before its chunks are copied
			s.flight.Discard()
			s.tracker.Recycle(c.Chunks)
			continue
		}
		sobs = append(sobs, features.FromChunks(c.Chunks, s.tracker.TakeChunks(len(c.Chunks))))
		kept = append(kept, *c)
	}
	s.sobsBuf, s.keptBuf = sobs, kept
	reps := s.fw.AnalyzeBatchSince(sobs, t0, s.stages, &s.scratch)
	var out []Report
	if reuse {
		out = s.outBuf[:0]
	} else {
		out = make([]Report, 0, len(reps))
	}
	for i := range reps {
		r, c := &reps[i], &kept[i]
		name := s.resolve(c.Sub)
		// in place, field by field (DESIGN §13)
		out = append(out, Report{})
		rep := &out[len(out)-1]
		rep.Subscriber, rep.Start, rep.End, rep.Report = name, c.Start, c.End, *r
		// the rows are each model's projected (baseline-order) feature
		// vector for this session, views of the batch scratch
		stallProj, repProj := s.fw.Projected(&s.scratch, i)
		if s.cohorts != nil {
			// the key is read in place out of the interner's column: a
			// three-string Key returned by value is spilled by narrow
			// stores and reloaded wide (DESIGN §13)
			s.cohorts.Observe(s.id, *s.cohortOf(c.Cohort), *r)
		}
		if s.quality != nil {
			s.quality.Stall.Observe(s.id, stallProj, int(r.Stall), r.StallConf)
			s.quality.Rep.Observe(s.id, repProj, int(r.Representation), r.RepConf)
			s.quality.ObserveSwitch(s.id, r.SwitchScore, r.SwitchVariance, r.Chunks)
			s.quality.TrackPrediction(qualitymon.Prediction{
				Subscriber: name,
				Start:      c.Start,
				End:        c.End,
				Stall:      int(r.Stall),
				Rep:        int(r.Representation),
				StallConf:  r.StallConf,
				RepConf:    r.RepConf,
			})
		}
		if s.flight != nil {
			// decide first, so only the retained tail is copied anywhere;
			// what Retain keeps as it is — the subscriber name and the
			// cohort label — are the interner's strings, and the vectors
			// are views of the scratch, so nothing is allocated here
			if reasons, score, ok := s.flight.Decide(*r); ok {
				s.flight.Retain(flight.Assessment{
					Subscriber: name,
					Start:      c.Start,
					End:        c.End,
					Report:     *r,
					Chunks:     c.Chunks,
					RawEntries: c.Entries,
					Cohort:     s.labelOf(c.Cohort),
					StallProj:  stallProj,
					RepProj:    repProj,
				}, score, reasons)
			}
		}
		s.traceClosed(obs.EvReport, c.End, c)
	}
	// batch fully consumed: recycle both the featurization copies and
	// the closed sessions' buffers
	for i := range sobs {
		s.tracker.Recycle(sobs[i].Chunks)
	}
	for i := range kept {
		s.tracker.Recycle(kept[i].Chunks)
	}
	if reuse {
		s.outBuf = out
	}
	return out
}
