// Package flight is the session flight recorder: the per-session
// drill-down layer under the fleet aggregates. Cohort rollups and the
// model-quality monitor say *that* eu-west mobile viewers are hurting
// or *that* the stall model degraded; the flight recorder keeps the
// evidence — a structured event timeline (chunk arrivals, gap spans,
// feature summary, per-detector verdicts with decision-path feature
// attributions, MOS fold, cohort attribution) for a sampled subset of
// sessions, so an operator can open one concrete session and see why
// it scored the way it did.
//
// Sampling is tail-based: the retention decision runs at session
// close, when the outcome is known, so the interesting tail is kept
// regardless of how rare it is. A session's full timeline is retained
// when it matches any policy:
//
//   - stalled: the stall detector saw rebuffering;
//   - worst_mos: the session's MOS falls strictly below the exact 10th
//     percentile of the scores its shard has seen, itself included
//     (after a warm-up floor);
//   - low_confidence: either forest's winning vote share fell below
//     the configured floor — the sessions the model is least sure
//     about, and the likeliest future mispredictions;
//   - labeled_wrong: a delayed ground-truth label contradicted the
//     prediction (promoted after the fact via ObserveOutcome);
//   - uniform: every Nth session, as an unbiased baseline.
//
// The open-session timeline costs nothing to accumulate: the flow
// table (sessionizer.ColTracker) already buffers every open session's
// chunk observations for feature extraction, so retention is a header
// write plus one float-only pass that compacts the buffer into
// pointer-free 24-byte records — compact at retention, replay on
// demand. The buffer goes back to the tracker's pool; records, vectors
// and headers go into two per-shard FIFO stores of fixed segments
// (arena.go), reused oldest-first once the budget is reached, so a
// recorder at its budget allocates nothing per retained session. The
// event timeline is materialized from the records only when an
// operator actually drills down. The hot path pays one Decide call
// per *closed session* — a MOS score, one tally increment and a walk
// of its 18 counts, and a few branches — with the compaction pass only
// for the retained tail; a nil *Recorder (or nil *ShardRecorder) is
// the "off" mode with zero cost.
//
// Memory is hard-capped: retained sessions are accounted in bytes; the
// oldest are evicted (and counted) when a shard exceeds its budget, and
// each timeline caps its event count (truncation counted). Exemplars
// reads the worst live retained sessions per cohort label and per
// degraded model in one pass, so /debug/cohorts and /debug/quality can
// link to them; retention keeps no index for it.
package flight

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/mos"
)

// Reason is the bitmask of retention policies a session matched.
type Reason uint8

const (
	// ReasonStalled retains every session whose stall verdict is not
	// "no stall" — the paper's headline impairment.
	ReasonStalled Reason = 1 << iota
	// ReasonWorstMOS retains sessions strictly below the shard's exact
	// 10th-percentile MOS: strict, so at most a decile ever qualifies.
	ReasonWorstMOS
	// ReasonLowConfidence retains sessions either detector was unsure
	// about.
	ReasonLowConfidence
	// ReasonLabeledWrong marks sessions whose delayed ground-truth
	// label contradicted the prediction (set after retention by
	// ObserveOutcome; it cannot retain a session that was dropped).
	ReasonLabeledWrong
	// ReasonUniform retains every Nth session as an unbiased sample.
	ReasonUniform
)

// NumReasons is the number of retention policies (the ByReason
// counter arity).
const NumReasons = 5

var reasonNames = [NumReasons]string{"stalled", "worst_mos", "low_confidence", "labeled_wrong", "uniform"}

// reasonSets holds every bitmask's sorted policy names: an index render
// asks for one per row.
var reasonSets = func() (sets [1 << NumReasons][]string) {
	for r := range sets {
		for i := 0; i < NumReasons; i++ {
			if r&(1<<i) != 0 {
				sets[r] = append(sets[r], reasonNames[i])
			}
		}
		sort.Strings(sets[r])
	}
	return sets
}()

// Names expands the bitmask into sorted policy names (deterministic
// JSON). The slice is shared by every caller and must not be modified.
func (r Reason) Names() []string { return reasonSets[r&(1<<NumReasons-1)] }

// Defaults for Config's zero fields, and the recorder's fixed limits.
const (
	// DefaultSampleN retains one in every 32 sessions uniformly.
	DefaultSampleN = 32
	// DefaultMaxBytes is each shard's retained-timeline byte budget.
	DefaultMaxBytes = 8 << 20
	// maxTimelineEvents caps one retained session's materialized
	// timeline; chunks past it are counted, not kept.
	maxTimelineEvents = 256
	// lowConfidenceFloor is the winning-vote-share floor under which a
	// session is retained as low-confidence.
	lowConfidenceFloor = 0.55
	// exemplarsPerKey is how many retained session IDs each exemplar key
	// (cohort, degraded model) holds and links to.
	exemplarsPerKey = 4
	// worstMinSamples gates the worst-decile policy until the shard has
	// scored enough sessions for a decile to mean something.
	worstMinSamples = 32
	// attrTopK is how many decision-path feature attributions each
	// retained verdict carries.
	attrTopK = 5
)

// Config sizes a Recorder.
type Config struct {
	// Shards is the recorder stripe count; use the engine's shard count
	// so each worker goroutine owns one stripe. Minimum 1.
	Shards int
	// SampleN retains one in every N sessions uniformly (per shard).
	// 0 takes DefaultSampleN; negative disables the uniform policy
	// (outcome-driven policies still apply).
	SampleN int
	// MaxBytes is the per-shard byte budget for retained timelines
	// (DefaultMaxBytes when 0).
	MaxBytes int64
	// Disabled makes New return nil — the recorder-off mode callers
	// wire through unconditionally (every method is nil-safe).
	Disabled bool
}

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.SampleN == 0 {
		c.SampleN = DefaultSampleN
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	return c
}

// Assessment carries one closed session's outcome to the retention
// decision. Hot paths build it only after Decide says keep. Retain
// copies the floats it wants and keeps the two strings as they are — the
// engine passes its interned subscriber and the interner's cohort label.
type Assessment struct {
	Subscriber string
	Start, End float64
	Report     core.Report
	// Chunks is the session's buffered traffic (the flow-table view
	// the features came from): its media chunk observations in arrival
	// order. RawEntries is the total service-entry count the flow
	// closed with. Retention compacts Chunks into pointer-free records
	// synchronously inside Retain and never references the slice
	// afterwards, so callers may recycle it the moment Retain returns.
	Chunks     []features.ChunkObs
	RawEntries int
	// Cohort is the session's rendered region/device/cap label (""
	// when the traffic carried no cohort metadata).
	Cohort string
	// StallProj and RepProj are both detectors' projected feature
	// vectors; Retain copies them, so callers pass views of the batch
	// scratch. They ride the retained session so decision-path
	// attribution can run at drill-down time (see
	// Recorder.SetAttributor) instead of on the ingest path; either
	// may be empty.
	StallProj, RepProj []float64
}

// Attributor replays decision paths over the projected vectors a
// retained session carries, returning the top-k feature attributions
// per model. The engine wires core.Framework.AttributeVectors in at
// startup; renders without one simply omit attributions.
type Attributor func(stallProj, repProj []float64, k int) (stall, rep []core.FeatureAttribution)

// Recorder is the engine-wide flight recorder: one ShardRecorder per
// engine shard, each retaining under its own ring lock, so retention
// never contends on recorder-global state; the rare debug reads visit
// the shards in turn. All methods are nil-safe so call sites wire it
// unconditionally.
type Recorder struct {
	cfg    Config
	shards []*ShardRecorder
	attr   atomic.Pointer[Attributor]
	// maxEvents and lowConfidence are maxTimelineEvents and
	// lowConfidenceFloor; tests set other values (a non-positive floor
	// turns the low_confidence policy off)
	maxEvents     int
	lowConfidence float64
}

// SetAttributor installs the decision-path replay hook a drill-down
// render uses to attribute a retained session's verdicts. Nil-safe;
// installing nil is a no-op.
func (r *Recorder) SetAttributor(fn Attributor) {
	if r == nil || fn == nil {
		return
	}
	r.attr.Store(&fn)
}

// attribute replays a copied-out session's projected vectors through
// the installed attributor, or returns nils when either side is
// missing.
func (r *Recorder) attribute(s *replay, k int) (stall, rep []core.FeatureAttribution) {
	p := r.attr.Load()
	if p == nil || (s.stallProj == nil && s.repProj == nil) {
		return nil, nil
	}
	return (*p)(s.stallProj, s.repProj, k)
}

// New builds a recorder, or returns nil (recording off) when
// cfg.Disabled is set.
func New(cfg Config) *Recorder {
	if cfg.Disabled {
		return nil
	}
	cfg = cfg.WithDefaults()
	r := &Recorder{cfg: cfg, maxEvents: maxTimelineEvents, lowConfidence: lowConfidenceFloor}
	r.shards = make([]*ShardRecorder, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = &ShardRecorder{
			rec: r, shard: i,
			hdrs:   fifo[header]{segLen: headerSegLen},
			floats: fifo[float64]{segLen: floatSegLen},
			labels: make(map[uint64][]Event),
		}
	}
	return r
}

// Shard returns the recorder stripe owned by one engine shard worker
// (nil on a nil recorder — the zero-cost off mode).
func (r *Recorder) Shard(i int) *ShardRecorder {
	if r == nil {
		return nil
	}
	return r.shards[i%len(r.shards)]
}

// ShardRecorder is one engine shard's slice of the recorder. Decide,
// Retain and Discard are called only by the owning shard worker; the
// mutex guards only the retained stores (snapshot readers and label
// promotion), never the per-session hot path state.
type ShardRecorder struct {
	rec   *Recorder
	shard int

	// worker-owned retention state (no locking): every score the shard
	// decided on, and how many sessions that was
	scores mos.Tally
	nth    int64

	mu sync.Mutex
	// the retained sessions, oldest first: a header each — its position
	// in hdrs is the session's sequence number, alive iff at or past
	// hdrs.head — and its chunk records and vectors in floats
	hdrs   fifo[header]
	floats fifo[float64]
	bytes  int64 // accounted footprint of the live sessions
	// labels holds the delayed EvLabel events of ObserveOutcome, by
	// sequence number, until the session is evicted
	labels map[uint64][]Event
	// index finds a live session by subscriber and start; nil until
	// the first lookup
	index map[sessionKey]keySeqs

	recorded  atomic.Int64
	retained  atomic.Int64
	evicted   atomic.Int64
	truncated atomic.Int64
	byReason  [NumReasons]atomic.Int64
}

// Discard records a session that closed below the assessment floor
// (signalling-only fragments the engine suppresses).
func (s *ShardRecorder) Discard() {
	if s == nil {
		return
	}
	s.recorded.Add(1)
}

// Decide runs the tail-sampling decision alone, without touching the
// session's raw material: the MOS score is counted in the shard's
// tally here, and the returned reasons say whether the session should
// be retained (ok). The split lets the engine's hot path pay
// nothing but arithmetic for dropped sessions — the Assessment, with
// its cohort render and projected-vector copies, is only built when ok is
// true and handed to Retain. Call it exactly once per assessed
// session (it advances the uniform-sample and percentile state), from
// the owning shard worker only. ok is always false on a nil recorder.
func (s *ShardRecorder) Decide(rep core.Report) (Reason, float64, bool) {
	if s == nil {
		return 0, 0, false
	}
	s.recorded.Add(1)
	score := float64(s.scores.Observe(rep))
	s.nth++

	var reasons Reason
	if rep.Stall != features.NoStall {
		reasons |= ReasonStalled
	}
	if s.nth >= worstMinSamples && score < s.scores.Percentile(10) {
		reasons |= ReasonWorstMOS
	}
	if lc := s.rec.lowConfidence; lc > 0 && (rep.StallConf < lc || rep.RepConf < lc) {
		reasons |= ReasonLowConfidence
	}
	if n := s.rec.cfg.SampleN; n > 0 && s.nth%int64(n) == 0 {
		reasons |= ReasonUniform
	}
	return reasons, score, reasons != 0
}

// Retain keeps one session Decide said to keep. Callers pass Decide's
// reasons and score through. It compacts the raw material into the
// shard's stores (see push) and evicts oldest-first past the byte
// budget: one float-only pass over the chunks plus store bookkeeping,
// at the budget no allocation. The timeline is NOT
// materialized here — that happens at drill-down render time.
func (s *ShardRecorder) Retain(a Assessment, score float64, reasons Reason) {
	if s == nil {
		return
	}
	s.retained.Add(1)
	for i := 0; i < NumReasons; i++ {
		if reasons&(1<<i) != 0 {
			s.byReason[i].Add(1)
		}
	}

	s.mu.Lock()
	h := s.push(&a, score, reasons)
	if reasons&ReasonLowConfidence != 0 {
		if a.Report.StallConf < s.rec.lowConfidence {
			h.models |= exemplarStall
		}
		if a.Report.RepConf < s.rec.lowConfidence {
			h.models |= exemplarRep
		}
	}
	truncated := h.truncated()
	s.evictOverBudget()
	s.mu.Unlock()
	s.truncated.Add(truncated)
}

// evictOverBudget drops the oldest sessions while the shard holds more
// than its byte budget, never the newest one. The caller holds s.mu.
func (s *ShardRecorder) evictOverBudget() {
	for s.bytes > s.rec.cfg.MaxBytes && s.hdrs.live() > 1 {
		s.evictOldest()
		s.evicted.Add(1)
	}
}

// Exemplar model bits: the detectors a retained session is a
// degraded-model exemplar of (header.models).
const (
	exemplarStall uint8 = 1 << iota
	exemplarRep
)

// modelBit maps a detector name ("stall" or "rep") to its exemplar bit.
func modelBit(model string) uint8 {
	switch model {
	case "stall":
		return exemplarStall
	case "rep":
		return exemplarRep
	}
	return 0
}

// exemplar is what an exemplar link is ordered by and rendered from.
type exemplar struct {
	mos        float64
	subscriber string
	start      float64
}

// exemplarLess is the worst-first exemplar order: lowest MOS, then
// subscriber, then start — total, so renders are deterministic.
func exemplarLess(a, b *exemplar) bool {
	if a.mos != b.mos {
		return a.mos < b.mos
	}
	if a.subscriber != b.subscriber {
		return a.subscriber < b.subscriber
	}
	return a.start < b.start
}

// worstN is one exemplar key's exemplarsPerKey worst sessions seen so
// far, worst first.
type worstN struct {
	n int
	e [exemplarsPerKey]exemplar
}

func (l *worstN) offer(h *header) {
	e := exemplar{h.mos, h.subscriber, h.start}
	if l.n == exemplarsPerKey && !exemplarLess(&e, &l.e[l.n-1]) {
		return
	}
	i := min(l.n, exemplarsPerKey-1)
	for ; i > 0 && exemplarLess(&e, &l.e[i-1]); i-- {
		l.e[i] = l.e[i-1]
	}
	l.e[i] = e
	l.n = min(l.n+1, exemplarsPerKey)
}

// Exemplars returns the drill-down links of every exemplar key: for
// each cohort label a retained session carries, and for "model/stall"
// and "model/rep", the IDs ("subscriber/start", the /debug/flight path
// form) of up to exemplarsPerKey live retained sessions, worst first by
// exemplarLess, each at most once. A model key holds the sessions
// retained as low-confidence with that detector under the floor, and
// those a label for that detector promoted. It is one pass over every
// shard's live headers, each shard under its lock as in Snapshot, made
// by the debug handlers that serve the links; retention keeps no index.
// Nil on a nil recorder.
func (r *Recorder) Exemplars() map[string][]string {
	if r == nil {
		return nil
	}
	worst := make(map[string]*worstN)
	offer := func(key string, h *header) {
		l := worst[key]
		if l == nil {
			l = new(worstN)
			worst[key] = l
		}
		l.offer(h)
	}
	for _, s := range r.shards {
		s.mu.Lock()
		for seq := s.hdrs.head; seq < s.hdrs.tail; seq++ {
			h := s.hdrs.at(seq)
			if h.cohort != "" {
				offer(h.cohort, h)
			}
			if h.models&exemplarStall != 0 {
				offer("model/stall", h)
			}
			if h.models&exemplarRep != 0 {
				offer("model/rep", h)
			}
		}
		s.mu.Unlock()
	}
	out := make(map[string][]string, len(worst))
	for key, l := range worst {
		ids := make([]string, l.n)
		for i := range ids {
			ids[i] = sessionID(l.e[i].subscriber, l.e[i].start)
		}
		out[key] = ids
	}
	return out
}

// ObserveOutcome promotes a retained session whose delayed
// ground-truth label contradicted the prediction: the labeled_wrong
// reason is added, a label event is appended to its timeline (evicting
// oldest-first if that takes the shard past its byte budget), and the
// session becomes an exemplar of that model. Sessions that were
// never retained cannot be resurrected — the label arrives after the
// timeline is gone; the low-confidence policy exists to keep most
// future mispredictions. Safe from any goroutine.
func (r *Recorder) ObserveOutcome(subscriber string, start, end float64, model, note string) {
	if r == nil {
		return
	}
	for _, s := range r.shards {
		s.mu.Lock()
		seq, h := s.lookup(subscriber, start)
		if h == nil {
			s.mu.Unlock()
			continue
		}
		h.reasons |= ReasonLabeledWrong
		ev := Event{TS: end, Kind: EvLabel, Note: model + ": " + note}
		s.labels[seq] = append(s.labels[seq], ev)
		b := eventBytes(&ev)
		h.bytes += b
		s.bytes += b
		h.models |= modelBit(model)
		s.evictOverBudget()
		s.mu.Unlock()
		s.byReason[reasonIndex(ReasonLabeledWrong)].Add(1)
		return
	}
}

func reasonIndex(r Reason) int {
	for i := 0; i < NumReasons; i++ {
		if r&(1<<i) != 0 {
			return i
		}
	}
	return 0
}

// sessionID renders the canonical "subscriber/start" session key used
// in exemplar links and /debug/flight paths. FormatFloat 'g'/-1
// round-trips exactly, so the rendered start parses back to the same
// float64 for lookup.
func sessionID(subscriber string, start float64) string {
	var buf [64]byte // an index render builds one per row: one object, not two
	b := append(append(buf[:0], subscriber...), '/')
	return string(strconv.AppendFloat(b, start, 'g', -1, 64))
}
