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
//   - worst_mos: the session's MOS falls at or below the shard's
//     streaming P² 10th percentile (after a warm-up floor);
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
// per *closed session* — a MOS score, a P² update, and a few
// branches — with the compaction pass only for the retained tail; a
// nil *Recorder (or nil *ShardRecorder) is the "off" mode with zero
// cost.
//
// Memory is hard-capped: retained sessions are accounted in bytes; the
// oldest are evicted (and counted) when a shard exceeds its budget, and
// each timeline caps its event count (truncation counted). Exemplar
// registries index the worst retained sessions per cohort key and per
// degraded model so /debug/cohorts and /debug/quality can link to them.
package flight

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/mos"
	"vqoe/internal/stats"
)

// Reason is the bitmask of retention policies a session matched.
type Reason uint8

const (
	// ReasonStalled retains every session whose stall verdict is not
	// "no stall" — the paper's headline impairment.
	ReasonStalled Reason = 1 << iota
	// ReasonWorstMOS retains sessions at or below the shard's rolling
	// 10th-percentile MOS.
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

// Defaults for Config's zero fields.
const (
	// DefaultSampleN retains one in every 32 sessions uniformly.
	DefaultSampleN = 32
	// DefaultMaxBytes is each shard's retained-timeline byte budget.
	DefaultMaxBytes = 8 << 20
	// DefaultMaxEvents caps one retained session's timeline length.
	DefaultMaxEvents = 256
	// DefaultLowConfidence is the winning-vote-share floor under which
	// a session is retained as low-confidence.
	DefaultLowConfidence = 0.55
	// exemplarsPerKey is how many retained session IDs each exemplar key
	// (cohort, degraded model) holds and links to.
	exemplarsPerKey = 4
	// worstMinSamples gates the worst-decile policy until the shard's
	// P² estimator has seen enough sessions to mean something.
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
	// MaxEvents caps one session's materialized timeline length
	// (DefaultMaxEvents when 0); chunks past it are counted, not kept.
	MaxEvents int
	// LowConfidence is the confidence floor for the low_confidence
	// policy (DefaultLowConfidence when 0; negative disables it).
	LowConfidence float64
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
	if c.MaxEvents <= 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	if c.LowConfidence == 0 {
		c.LowConfidence = DefaultLowConfidence
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
// engine shard. Exemplar indexing is striped with the shards — each
// shard registers its own retained sessions under its own ring lock,
// and the rare debug-endpoint reads merge the per-shard lists — so
// retention never contends on recorder-global state. All methods are
// nil-safe so call sites wire it unconditionally.
type Recorder struct {
	cfg    Config
	shards []*ShardRecorder
	attr   atomic.Pointer[Attributor]
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
	r := &Recorder{cfg: cfg}
	r.shards = make([]*ShardRecorder, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = &ShardRecorder{
			rec: r, shard: i,
			p10:       stats.NewP2Quantile(0.10),
			hdrs:      fifo[header]{segLen: headerSegLen},
			floats:    fifo[float64]{segLen: floatSegLen},
			labels:    make(map[uint64][]Event),
			exemplars: make(map[string]exemplarList),
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

	// worker-owned retention state (no locking)
	p10     *stats.P2Quantile
	nScores int64
	nth     int64

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
	// exemplars indexes this shard's retained sessions by exemplar
	// key, each list the worst-MOS exemplarsPerKey sessions, sorted.
	// Cohort entries use the bare region/device/cap key — a static
	// string on the retention path, no per-retention concatenation —
	// and model entries the literals "model/<stall|rep>"; the shapes
	// can't collide (cohort keys always carry two slashes). Guarded by
	// mu; reads merge the per-shard lists so retention never touches
	// recorder-global state.
	exemplars map[string]exemplarList

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
// session's raw material: the MOS score and the shard's P² percentile
// update happen here, and the returned reasons say whether the session
// should be retained (ok). The split lets the engine's hot path pay
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
	score := float64(mos.FromReport(rep))
	s.p10.Observe(score)
	s.nScores++
	s.nth++

	var reasons Reason
	if rep.Stall != features.NoStall {
		reasons |= ReasonStalled
	}
	if s.nScores >= worstMinSamples && score <= s.p10.Value() {
		reasons |= ReasonWorstMOS
	}
	if lc := s.rec.cfg.LowConfidence; lc > 0 && (rep.StallConf < lc || rep.RepConf < lc) {
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
// budget: one float-only pass over the chunks plus store and exemplar
// bookkeeping, at the budget no allocation. The timeline is NOT
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

	evicted := int64(0)
	s.mu.Lock()
	seq, h := s.push(&a, score, reasons)
	truncated := h.truncated()
	for s.bytes > s.rec.cfg.MaxBytes && s.hdrs.live() > 1 {
		s.evictOldest()
		evicted++
	}
	s.register(a.Cohort, seq)
	if reasons&ReasonLowConfidence != 0 {
		if a.Report.StallConf < s.rec.cfg.LowConfidence {
			s.register("model/stall", seq)
		}
		if a.Report.RepConf < s.rec.cfg.LowConfidence {
			s.register("model/rep", seq)
		}
	}
	s.mu.Unlock()
	s.truncated.Add(truncated)
	s.evicted.Add(evicted)
}

// exemplarList is one key's worst retained sessions on one shard, by
// sequence number, worst first; the extra slot is the newcomer's.
type exemplarList struct {
	n   int
	seq [exemplarsPerKey + 1]uint64
}

// exemplarLess is the worst-first exemplar order: lowest MOS, then
// subscriber, then start — total, so merged renders are deterministic.
func exemplarLess(a, b *header) bool {
	if a.mos != b.mos {
		return a.mos < b.mos
	}
	if a.subscriber != b.subscriber {
		return a.subscriber < b.subscriber
	}
	return a.start < b.start
}

// register indexes a retained session under one exemplar key on this
// shard, keeping the exemplarsPerKey worst (lowest-MOS) live sessions
// per key; evicted ones drop out here, lazily. Callers hold s.mu. The
// list is tiny and shard-local, and lives in the map by value, so only a
// key's first registration allocates.
func (s *ShardRecorder) register(key string, seq uint64) {
	l := s.exemplars[key]
	n := 0
	for _, e := range l.seq[:l.n] {
		if e >= s.hdrs.head {
			l.seq[n] = e
			n++
		}
	}
	l.seq[n] = seq
	for i := n; i > 0 && exemplarLess(s.hdrs.at(l.seq[i]), s.hdrs.at(l.seq[i-1])); i-- {
		l.seq[i], l.seq[i-1] = l.seq[i-1], l.seq[i]
	}
	l.n = min(n+1, exemplarsPerKey)
	s.exemplars[key] = l
}

// ExemplarIDs returns up to exemplarsPerKey retained session IDs for
// one exemplar key (a bare "region/device/cap" cohort key — the cohort
// rollup's hook — or "model/<stall|rep>"), worst MOS first. IDs are
// "subscriber/start" — the /debug/flight path form. The per-shard lists
// are merged here, on the rare debug-read path, so the retention path
// never touches shared state. Evicted sessions drop out lazily.
func (r *Recorder) ExemplarIDs(key string) []string {
	if r == nil {
		return nil
	}
	var merged []header
	for _, s := range r.shards {
		s.mu.Lock()
		l := s.exemplars[key]
		for _, e := range l.seq[:l.n] {
			if e >= s.hdrs.head {
				merged = append(merged, *s.hdrs.at(e))
			}
		}
		s.mu.Unlock()
	}
	if len(merged) == 0 {
		return nil
	}
	sort.Slice(merged, func(i, j int) bool { return exemplarLess(&merged[i], &merged[j]) })
	if len(merged) > exemplarsPerKey {
		merged = merged[:exemplarsPerKey]
	}
	out := make([]string, len(merged))
	for i := range merged {
		out[i] = sessionID(merged[i].subscriber, merged[i].start)
	}
	return out
}

// ModelExemplars adapts ExemplarIDs to the quality monitor's hook
// shape (model is "stall" or "rep").
func (r *Recorder) ModelExemplars(model string) []string {
	return r.ExemplarIDs("model/" + model)
}

// ObserveOutcome promotes a retained session whose delayed
// ground-truth label contradicted the prediction: the labeled_wrong
// reason is added, a label event is appended to its timeline, and the
// session is indexed as a degraded-model exemplar. Sessions that were
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
		s.register("model/"+model, seq)
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
