// Package engine is the live-session engine: the one online form of
// the paper's detection framework (§8: "the trained models can be
// directly applied on the passively monitored traffic and report
// issues in real time"), for an operator vantage point observing many
// subscribers at once (§8 envisions >10M). It shards the flow table by
// subscriber hash across N worker goroutines so ingest, §5.2
// sessionization, and forest inference all run concurrently with no
// cross-shard locking on the hot path. qoeserve runs it at one shard
// per CPU; the CLI tools (qoewatch, qoepcap -analyze) run the same
// engine at one shard with sweeps off, fed one entry per Ingest call.
//
// Each shard owns its slice of the flow table (a
// sessionizer.ColTracker), a bounded mailbox with explicit
// backpressure or drop accounting, an idle-eviction clock driven by
// the shard's event-time high-water mark, and a batched inference path
// (core.Framework.AnalyzeBatchSince) over the sessions a mailbox
// batch closes together. Drain flushes every shard for graceful
// shutdown; Snapshot exposes per-shard gauges for the Prometheus
// exposition.
//
// The reference the engine is tested against is the paper's offline
// path: sessionizer.Group over one subscriber's entries (§5.2),
// features.FromEntries, and core.Framework.Analyze (§4). With sweeps
// off the engine emits exactly those sessions and reports.
package engine

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// Config tunes the engine.
type Config struct {
	// Shards is the worker count; subscribers are hash-partitioned
	// across them. Default: GOMAXPROCS.
	Shards int
	// Mailbox is each shard's queue capacity, in messages. When a
	// mailbox is full, Ingest and Feed block (backpressure) while
	// Offer drops and counts. Default 256.
	Mailbox int
	// IdleGapSec closes a session after this much subscriber silence
	// (the §5.2 idle-gap boundary). Default 30.
	IdleGapSec float64
	// MinChunks suppresses reports for fragments with fewer media
	// chunks. Default 3.
	MinChunks int
	// EvictSlackSec lags the auto-eviction horizon behind the shard's
	// event-time high-water mark, tolerating that much cross-feeder
	// clock skew before an idle session is closed early. Default:
	// IdleGapSec.
	EvictSlackSec float64
	// SweepEverySec runs a shard's eviction sweep whenever its
	// high-water mark has advanced this much since the last sweep.
	// Negative disables auto-eviction (sessions then close only on
	// boundaries, explicit Advance, or Drain). Default: IdleGapSec/2.
	SweepEverySec float64
	// Obs attaches the observability layer: per-shard stage-latency
	// histograms, the session-lifecycle trace ring, and the structured
	// logger for drain/eviction events. nil (the default) turns all of
	// it off — the hot path then takes no clock readings at all.
	Obs *obs.Observer
	// Quality attaches the model-quality monitor: every shard feeds
	// its predictions (projected features, class, confidence) into the
	// monitor's per-shard accumulators and registers them for delayed
	// ground-truth matching via ObserveLabel. Build it with
	// core.NewQualityMonitor over the same framework and shard count.
	// nil (the default) turns quality monitoring off.
	Quality *qualitymon.Monitor
	// Cohorts attaches the fleet-level rollup layer: every assessed
	// session's MOS is counted in its cohort's tally in the shard's own
	// stripe. Build it with
	// cohort.NewRollup over the same shard count. nil (the default)
	// turns rollups off.
	Cohorts *cohort.Rollup
	// Flight attaches the session flight recorder: every assessed
	// session runs its shard's tail-sampling decision, and sessions
	// that stall, score in the worst MOS decile, confuse a detector, or
	// land on the uniform sample keep their full event timeline for
	// /debug/flight drill-down. Build it with flight.New over the same
	// shard count. nil (the default) turns recording off at zero cost.
	Flight *flight.Recorder
}

// DefaultConfig is every field at its documented default, mirroring the
// offline sessionizer's (sessionizer.DefaultConfig's idle gap, page boundaries on).
func DefaultConfig() Config { return Config{}.WithDefaults() }

// WithDefaults resolves every zero field to its default (documented on
// the fields above); callers that need the effective shard count
// before constructing the engine — e.g. to size an obs.Observer — use
// this.
func (c Config) WithDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Mailbox <= 0 {
		c.Mailbox = 256
	}
	if c.IdleGapSec <= 0 {
		c.IdleGapSec = 30
	}
	if c.MinChunks <= 0 {
		c.MinChunks = 3
	}
	if c.EvictSlackSec <= 0 {
		c.EvictSlackSec = c.IdleGapSec
	}
	if c.SweepEverySec == 0 {
		c.SweepEverySec = c.IdleGapSec / 2
	}
	return c
}

// Report is an emitted assessment of one finished session.
type Report struct {
	Subscriber string
	Start, End float64
	Report     core.Report
}

// Engine is the sharded live-session engine. All methods are safe for
// concurrent use; per-subscriber event order must be preserved by the
// caller: any one subscriber's entries must arrive through one door,
// from one goroutine at a time, in timestamp order — a subscriber always
// routes to the same shard, and a shard's mailbox is FIFO.
type Engine struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	// interner maps subscriber strings and cohort keys to dense uint32
	// IDs at the front door; slabs pools the per-batch routing storage
	// (recycled when the last shard acks its share); rejected counts what
	// the admission rule refused, by reason.
	interner *interner
	slabs    sync.Pool
	rejected [rejectReasons]atomic.Int64

	mu     sync.RWMutex
	closed bool
}

// New starts the engine's shard workers. Reports produced without a
// waiting caller — by Feed, Offer, or auto-eviction on those paths —
// are delivered to sink, which must be safe for concurrent use; a nil
// sink discards them (per-shard counters still record them).
func New(fw *core.Framework, cfg Config, sink func(Report)) *Engine {
	cfg = cfg.WithDefaults()
	cfg.Obs.EnsureShards(cfg.Shards) // no-op on a nil observer
	cfg.Flight.SetAttributor(fw.AttributeVectors)
	e := &Engine{
		cfg:      cfg,
		shards:   make([]*shard, cfg.Shards),
		interner: newInterner(cfg.Shards),
	}
	e.slabs.New = e.newSlab
	for i := range e.shards {
		e.shards[i] = newShard(i, fw, cfg, sink, e.interner)
		e.wg.Add(1)
		go e.shards[i].run(&e.wg)
	}
	return e
}

// newSlab is the slab pool's New: a slab whose feed, made once, submits
// it to this engine.
func (e *Engine) newSlab() any {
	b := &recSlab{pool: &e.slabs}
	b.feed = func(k int, done func()) {
		b.recs = b.recs[:k]
		e.submit(b, false, nil, done)
	}
	return b
}

// Shards reports the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Quality returns the attached model-quality monitor (nil when quality
// monitoring is off).
func (e *Engine) Quality() *qualitymon.Monitor { return e.cfg.Quality }

// Cohorts returns the attached fleet-rollup layer (nil when rollups
// are off).
func (e *Engine) Cohorts() *cohort.Rollup { return e.cfg.Cohorts }

// ObserveLabel feeds one delayed ground-truth label into the quality
// monitor and reports whether it matched an already-assessed session
// (unmatched labels wait, bounded, for the session to close). Safe at
// any time — including after Drain, since late labels for sessions the
// drain flushed must still count toward online accuracy. Returns false
// when quality monitoring is off.
func (e *Engine) ObserveLabel(l qualitymon.Label) bool {
	return e.cfg.Quality.ObserveLabel(l)
}

// Tally is what the engine did with one batch: every entry is accepted
// (mailed to its shard), dropped (shed by Offer on a full mailbox) or
// rejected (by the admission rule, see admit); all zero after Drain.
type Tally struct{ Accepted, Dropped, Rejected int }

// submit is the engine's only way in, the one admit-scatter-and-mail
// loop behind every door: the slab's recs[i] is bound for shard
// shardOf[i], as the wire door's decoder or the Entry doors'
// interner.digest wrote and resolved them. The scatter runs the admission
// rule, counts the rejects and lists each shard's admitted positions;
// every shard with any is mailed its list, and reads its recs where they
// lie. shed picks the full-mailbox policy — drop and count the share
// instead of blocking; reply, when non-nil, receives each mailed share's
// reports instead of the sink; done, when non-nil, is called once the
// batch is finished with (see Batch). It returns the tally and the shares
// mailed (the replies to wait for). From here on the slab is the
// engine's: the last release returns it to the pool.
func (e *Engine) submit(b *recSlab, shed bool, reply chan []Report, done func()) (t Tally, mailed int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		b.recs = b.recs[:0] // a drained engine takes nothing
	}
	b.done = done
	for why, n := range b.scatter(len(e.shards)) {
		e.rejected[why].Add(int64(n))
		t.Rejected += int(n)
	}
	// the scatter left this loop a reference of its own: b and its shares
	// stay put until the release below, whatever the shards have finished
	for i := range e.shards {
		at := b.positions(i)
		if len(at) == 0 {
			continue
		}
		msg := message{at: at, slab: b, reply: reply}
		if shed {
			select {
			case e.shards[i].mail <- msg:
			default:
				e.shards[i].dropped.Add(int64(len(at)))
				t.Dropped += len(at)
				b.release() // undelivered share: drop its slab reference
				continue
			}
		} else {
			e.shards[i].mail <- msg
		}
		t.Accepted += len(at)
		mailed++
	}
	b.release()
	return t, mailed
}

// Ingest processes a batch synchronously and returns the reports for
// every session the batch completed (including sessions the batch's
// eviction sweeps closed), ordered by session start time, and the
// batch's tally. It blocks when mailboxes are full — the
// request/response backpressure path behind the HTTP server's /ingest
// and the CLI tools' entry loops.
func (e *Engine) Ingest(entries []weblog.Entry) ([]Report, Tally) {
	// one slot per shard, so no worker ever blocks on its reply
	reply := make(chan []Report, len(e.shards))
	b := e.slabs.Get().(*recSlab)
	e.interner.digest(b, entries)
	t, mailed := e.submit(b, false, reply, nil)
	return collect(reply, mailed), t
}

// Feed processes a batch asynchronously: entries are enqueued (blocking
// when mailboxes are full) and completed sessions flow to the sink.
// Outside tests only the benchmark's layer harness calls it; captures
// reach a running server through the wire listener, which writes recs
// itself (Batch).
func (e *Engine) Feed(entries []weblog.Entry) {
	b := e.slabs.Get().(*recSlab)
	e.interner.digest(b, entries)
	e.submit(b, false, nil, nil)
}

// Settle, Find and Batch are the fused wire door (wire.RecSink): the
// listener's decoder writes a frame's recs into a batch Batch lends it,
// has the validated frame's identities resolved through one Settle — the
// routine the Entry doors' batches go through too — and its label
// subscribers through Find, and hands the batch back, so no weblog.Entry
// exists on that path and no rec is copied after it is written.
//
// Settle resolves rec i's subscriber subs[i] into recs[i].Sub and
// shardOf[i], and its canonical cohort key keys[i]
// (weblog.AppendCohortKey; nil for none) into recs[i].Cohort, interning
// what is new. A batch whose identities are all known takes no lock.
// Nothing passed in is retained.
func (e *Engine) Settle(subs, keys [][]byte, recs []sessionizer.Rec, shardOf []uint32) {
	e.interner.settle(subs, keys, recs, shardOf)
}

// Find resolves the subscribers subs[i] an earlier call interned into
// refs[i], lock-free and interning nothing; a never-seen name is the
// zero SubRef. Nothing passed in is retained.
func (e *Engine) Find(subs [][]byte, refs []sessionizer.SubRef) { e.interner.find(subs, refs) }

// Batch lends a pooled routing slab's storage for at most n recs: the
// caller writes recs[i] and, through Settle, its shard shardOf[i] (both
// n long and dirty), and hands the slab back with feed(k, done), which is
// Feed for the first k recs — read in place by the shards, never copied.
// done, when non-nil, is called exactly once, when the last shard has
// processed its share of the batch — at once when the engine takes none
// of it (closed, k = 0, every rec rejected) — by that shard or by feed on
// its way out; the listener bounds each connection's batches in flight
// with it. Neither slice may be touched after feed.
func (e *Engine) Batch(n int) (recs []sessionizer.Rec, shardOf []uint32, feed func(k int, done func())) {
	b := e.slabs.Get().(*recSlab)
	b.recs, b.shardOf = growCap(b.recs, n), growCap(b.shardOf, n)
	return b.recs, b.shardOf, b.feed
}

// Offer is Feed without backpressure: when a shard's mailbox is full
// its slice of the batch is dropped and counted (load shedding under
// overload).
func (e *Engine) Offer(entries []weblog.Entry) Tally {
	b := e.slabs.Get().(*recSlab)
	e.interner.digest(b, entries)
	t, _ := e.submit(b, true, nil, nil)
	return t
}

// collect gathers n shard replies into one report list ordered by
// start time.
func collect(reply chan []Report, n int) []Report {
	var out []Report
	for ; n > 0; n-- {
		out = append(out, <-reply...)
	}
	sortReports(out)
	return out
}

// broadcast mails one control message to every shard and collects the
// reports it produced.
func (e *Engine) broadcast(m message) []Report {
	m.reply = make(chan []Report, len(e.shards)) // one slot per shard
	for _, s := range e.shards {
		s.mail <- m
	}
	return collect(m.reply, len(e.shards))
}

// Advance closes every session idle at the given capture-clock time on
// all shards and returns their reports ordered by start time.
func (e *Engine) Advance(now float64) []Report {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil
	}
	return e.broadcast(message{advance: now})
}

// Drain gracefully shuts the engine down: every shard flushes its
// remaining open sessions (end of capture), workers exit, and the
// final reports are returned ordered by start time. Further calls are
// no-ops returning nil.
func (e *Engine) Drain() []Report {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	out := e.broadcast(message{flush: true})
	for _, s := range e.shards {
		close(s.mail)
	}
	e.wg.Wait()
	return out
}

// ShardStats is one shard's operational snapshot.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Open is the number of sessions currently tracked.
	Open int
	// StoreBytes is the memory the shard's flow store holds for its open
	// sessions' chunks (sessionizer.ColTracker.StoreBytes), read at the
	// end of the last message like Open.
	StoreBytes int
	// Mailbox is the current queue depth, in messages.
	Mailbox int
	// Events counts entries processed (offered, not rejected or dropped).
	Events int64
	// Dropped counts entries shed by Offer on a full mailbox.
	Dropped int64
	// Reports counts sessions assessed and emitted.
	Reports int64
	// Evicted counts sessions closed by the idle clock rather than an
	// explicit §5.2 boundary entry.
	Evicted int64
	// LastWorkUnixNano is the wall-clock time the shard worker last
	// finished a message (0 = never, or the engine runs without an
	// observer — the tap rides the stage-histogram clock reading).
	LastWorkUnixNano int64
}

// MailboxCap returns the configured per-shard mailbox capacity, the
// denominator for mailbox-saturation monitoring.
func (e *Engine) MailboxCap() int { return e.cfg.Mailbox }

// Snapshot reads every shard's counters and gauges. Safe to call at
// any time, including after Drain.
func (e *Engine) Snapshot() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStats{
			Shard:            i,
			Open:             int(s.open.Load()),
			StoreBytes:       int(s.storeBytes.Load()),
			Mailbox:          len(s.mail),
			Events:           s.events.Load(),
			Dropped:          s.dropped.Load(),
			Reports:          s.reports.Load(),
			Evicted:          s.evicted.Load(),
			LastWorkUnixNano: s.lastWork.Load(),
		}
	}
	return out
}

// Rejected reads how many entries the admission rule has refused, by
// reason (RejectReasons names them); no ShardStats counts them.
func (e *Engine) Rejected() (n [rejectReasons]int64) {
	for i := range n {
		n[i] = e.rejected[i].Load()
	}
	return n
}

// ShardSessions is one shard's live flow-table view for the
// /debug/sessions endpoint: the open sessions, the shard's event-time
// high-water mark, against which session ages are read, and the bytes
// its flow store holds for those sessions' chunks.
type ShardSessions struct {
	Shard      int                       `json:"shard"`
	HighWater  float64                   `json:"high_water"`
	StoreBytes int                       `json:"store_bytes"`
	Sessions   []sessionizer.OpenSession `json:"sessions"`
}

// OpenSessions snapshots every shard's open sessions. The request
// rides the shard mailboxes (so it serializes with ingest, never races
// the flow tables) and therefore blocks behind queued work; after
// Drain it returns empty snapshots without touching the workers.
func (e *Engine) OpenSessions() []ShardSessions {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]ShardSessions, len(e.shards))
	if e.closed {
		for i := range out {
			out[i] = ShardSessions{Shard: i, Sessions: []sessionizer.OpenSession{}}
		}
		return out
	}
	replies := make([]chan ShardSessions, len(e.shards))
	for i, s := range e.shards {
		replies[i] = make(chan ShardSessions, 1)
		s.mail <- message{sessions: replies[i]}
	}
	for i, ch := range replies {
		out[i] = <-ch
	}
	return out
}

func sortReports(rs []Report) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Start != rs[j].Start {
			return rs[i].Start < rs[j].Start
		}
		return rs[i].Subscriber < rs[j].Subscriber
	})
}
