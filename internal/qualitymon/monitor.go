package qualitymon

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"vqoe/internal/obs"
)

// Thresholds are the degradation tripwires. Zero fields resolve to the
// documented defaults.
type Thresholds struct {
	// PSI flags a feature (or the prediction prior) as drifted above
	// this index. Default 0.2, the conventional "significant shift".
	PSI float64 `json:"psi"`
	// AccuracyDrop flags the model when online accuracy falls this far
	// below the held-out baseline accuracy (fraction, e.g. 0.05 = five
	// points). Default 0.05.
	AccuracyDrop float64 `json:"accuracy_drop"`
	// MinSamples gates the distribution checks: below this many
	// predictions the PSI estimates are noise. Default 200.
	MinSamples int64 `json:"min_samples"`
	// MinLabels gates the accuracy check. Default 50.
	MinLabels int64 `json:"min_labels"`
}

// DefaultThresholds returns the documented defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{PSI: 0.2, AccuracyDrop: 0.05, MinSamples: 200, MinLabels: 50}
}

// WithDefaults resolves zero fields.
func (t Thresholds) WithDefaults() Thresholds {
	d := DefaultThresholds()
	if t.PSI <= 0 {
		t.PSI = d.PSI
	}
	if t.AccuracyDrop <= 0 {
		t.AccuracyDrop = d.AccuracyDrop
	}
	if t.MinSamples <= 0 {
		t.MinSamples = d.MinSamples
	}
	if t.MinLabels <= 0 {
		t.MinLabels = d.MinLabels
	}
	return t
}

// ModelConfig describes one monitored classifier.
type ModelConfig struct {
	// Name labels the model in snapshots and metric families.
	Name string
	// Classes is the prediction schema.
	Classes []string
	// Baseline is the training-time reference; nil (a model saved
	// before baselines existed) disables the drift comparisons for
	// this model but keeps prediction counting and label accuracy.
	Baseline *Baseline
}

// Config builds a Monitor.
type Config struct {
	// Shards is how many independent writers will call Observe —
	// normally the engine shard count. Each gets its own accumulator
	// set so the hot path shares no cache lines across shards.
	Shards int
	// Thresholds are the degradation tripwires (zeros → defaults).
	Thresholds Thresholds
	// Stall and Rep describe the two forest models.
	Stall, Rep ModelConfig
	// PendingCap bounds each stripe's buffered unmatched predictions
	// and labels (oldest evicted beyond it). Default 4096.
	PendingCap int
}

// Label is one delayed ground-truth report for a session, the wire
// type of the label side-channel (qoegen -label-rate emits these
// inline in the JSONL stream with Type == "label"; POST /labels and
// engine.ObserveLabel accept them). Class values are indices into the
// models' class schemas.
type Label struct {
	Type        string  `json:"type,omitempty"`
	Subscriber  string  `json:"subscriber"`
	Start       float64 `json:"start"`
	End         float64 `json:"end"`
	AvailableAt float64 `json:"available_at,omitempty"`
	Stall       int     `json:"stall"`
	Rep         int     `json:"rep"`
}

// LabelType is the Type value that marks a JSONL line as a Label
// rather than a weblog entry.
const LabelType = "label"

// typeProbe is the cheap screen for side-channel lines: weblog entries
// never carry a "type" key, so only lines containing it pay the extra
// unmarshal to check for "type":"label".
var typeProbe = []byte(`"type"`)

// ParseLabelLine demuxes one line of a JSONL stream that interleaves
// labels with weblog entries. isLabel reports whether the line is a
// label ("type":"label"); err is set when it is one but does not
// decode — whether to reject the stream or skip the line is the
// caller's policy.
func ParseLabelLine(line []byte) (l Label, isLabel bool, err error) {
	if !bytes.Contains(line, typeProbe) {
		return l, false, nil
	}
	var probe struct {
		Type string `json:"type"`
	}
	if json.Unmarshal(line, &probe) != nil || probe.Type != LabelType {
		return l, false, nil
	}
	err = json.Unmarshal(line, &l)
	return l, true, err
}

// Prediction identifies one emitted session assessment for later
// matching against a Label.
type Prediction struct {
	Subscriber         string
	Start, End         float64
	Stall, Rep         int
	StallConf, RepConf float64
}

// Monitor is the serve-time model-quality monitor. Observe and
// TrackPrediction are called from engine shard workers (lock-free and
// stripe-locked respectively); ObserveLabel from any goroutine;
// Snapshot at scrape time. All methods are nil-safe so callers can
// wire it unconditionally.
type Monitor struct {
	Stall *ModelMonitor
	Rep   *ModelMonitor
	// SwitchScores is the CUSUM switch detector's observed score
	// histogram (no trained baseline exists for it; the snapshot
	// reports the varying rate and score distribution).
	switchHist    []*obs.Counters
	switchVarying []*obs.Counters
	switchSum     []obs.FloatCell

	th         Thresholds
	pendingCap int
	stripes    []pendingStripe

	labelsTotal   atomic.Int64
	labelsMatched atomic.Int64
	labelsEvicted atomic.Int64
	predsEvicted  atomic.Int64

	// lastLabelNano is the wall-clock time (unix nanos) the monitor
	// last received a ground-truth label — the freshness watchdog's
	// "silent upstream" tap (0 = never).
	lastLabelNano atomic.Int64

	// outcome, when set, receives every resolved (prediction, label)
	// pair — the flight recorder uses it to promote retained sessions
	// whose label contradicted the prediction. Set at wiring time,
	// before traffic.
	outcome func(Outcome)

	// exemplars, when set, resolves a degraded model name ("stall" or
	// "rep") to retained flight-recorder session IDs for the snapshot.
	exemplars func(model string) []string
}

// Outcome is one resolved (prediction, ground-truth label) pair, as
// delivered to the hook installed by SetOutcomeHook.
type Outcome struct {
	Prediction   Prediction
	Label        Label
	StallCorrect bool
	RepCorrect   bool
}

// pendingStripe buffers unmatched predictions and labels for one
// subscriber-hash stripe; whichever side arrives first waits for the
// other, so delivery order between the traffic stream and the label
// side-channel does not matter.
type pendingStripe struct {
	mu     sync.Mutex
	preds  ring[Prediction]
	labels ring[Label]
}

// ring is a bounded FIFO whose push is O(1) whether or not it evicts: a
// stripe that has filled stays full for the life of the process, so
// eviction is the common case. The buffer doubles on demand up to the
// limit push is given and then stays.
type ring[T any] struct {
	buf     []T
	head, n int // index of the oldest element, element count
}

// idx maps the i-th oldest element (0 ≤ i ≤ n) to its buffer index.
func (r *ring[T]) idx(i int) int {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// push appends v, evicting the oldest element first when the ring
// already holds limit; it reports whether it evicted.
func (r *ring[T]) push(v T, limit int) (evicted bool) {
	if r.n == limit {
		r.buf[r.head] = v
		r.head = r.idx(1)
		return true
	}
	if r.n == len(r.buf) {
		a, b := r.parts()
		r.buf = make([]T, min(max(2*r.n, 64), limit))
		copy(r.buf[copy(r.buf, a):], b)
		r.head = 0
	}
	r.buf[r.idx(r.n)] = v
	r.n++
	return false
}

// parts returns the contents, oldest first, as the at most two
// contiguous runs they occupy.
func (r *ring[T]) parts() (a, b []T) {
	if end := r.head + r.n; end > len(r.buf) {
		return r.buf[r.head:], r.buf[:end-len(r.buf)]
	}
	return r.buf[r.head : r.head+r.n], nil
}

// remove takes out the i-th oldest element, keeping the order of the
// rest (which is what breaks ties between equal overlaps).
func (r *ring[T]) remove(i int) T {
	v := r.buf[r.idx(i)]
	for ; i+1 < r.n; i++ {
		r.buf[r.idx(i)] = r.buf[r.idx(i+1)]
	}
	r.n--
	return v
}

// best runs match on each contiguous run and returns the index (i-th
// oldest) of the highest score, the oldest among equals, or -1.
func (r *ring[T]) best(match func([]T) (int, float64)) int {
	if r.n == 0 {
		return -1
	}
	a, b := r.parts()
	i, ov := match(a)
	if j, ov2 := match(b); ov2 > ov {
		i = len(a) + j
	}
	return i
}

// numStripes is the pending-match lock striping; label traffic is a
// fraction of session throughput, so contention here is negligible.
const numStripes = 64

// switchScoreEdges bins the CUSUM switch scores (upper bounds; one
// +Inf overflow bin follows).
var switchScoreEdges = []float64{50, 100, 200, 350, 500, 750, 1000, 2000, 5000}

// New builds a monitor. Returns nil when cfg.Shards <= 0.
func New(cfg Config) *Monitor {
	if cfg.Shards <= 0 {
		return nil
	}
	m := &Monitor{
		Stall:         newModelMonitor(cfg.Stall, cfg.Shards),
		Rep:           newModelMonitor(cfg.Rep, cfg.Shards),
		switchHist:    make([]*obs.Counters, cfg.Shards),
		switchVarying: make([]*obs.Counters, cfg.Shards),
		switchSum:     make([]obs.FloatCell, cfg.Shards),
		th:            cfg.Thresholds.WithDefaults(),
		pendingCap:    cfg.PendingCap,
		stripes:       make([]pendingStripe, numStripes),
	}
	if m.pendingCap <= 0 {
		m.pendingCap = 4096
	}
	for i := range m.switchHist {
		m.switchHist[i] = obs.NewCounters(len(switchScoreEdges) + 1)
		m.switchVarying[i] = obs.NewCounters(1)
	}
	return m
}

// ObserveSwitch records one session's CUSUM switch score.
func (m *Monitor) ObserveSwitch(shard int, score float64, varying bool) {
	if m == nil {
		return
	}
	shard %= len(m.switchHist)
	i := 0
	for i < len(switchScoreEdges) && score > switchScoreEdges[i] {
		i++
	}
	m.switchHist[shard].Inc(i)
	m.switchSum[shard].Add(score)
	if varying {
		m.switchVarying[shard].Inc(0)
	}
}

func (m *Monitor) stripe(subscriber string) *pendingStripe {
	h := fnv.New32a()
	h.Write([]byte(subscriber))
	return &m.stripes[h.Sum32()%numStripes]
}

// TrackPrediction registers an emitted session assessment for later
// ground-truth matching. If a buffered label already covers it the
// pair resolves immediately.
func (m *Monitor) TrackPrediction(p Prediction) {
	if m == nil {
		return
	}
	st := m.stripe(p.Subscriber)
	st.mu.Lock()
	if i := st.labels.best(func(ls []Label) (int, float64) { return bestLabelMatch(ls, p.Subscriber, p.Start, p.End) }); i >= 0 {
		l := st.labels.remove(i)
		st.mu.Unlock()
		m.resolve(p, l)
		return
	}
	if st.preds.push(p, m.pendingCap) {
		m.predsEvicted.Add(1)
	}
	st.mu.Unlock()
}

// ObserveLabel feeds one delayed ground-truth label. It reports
// whether the label matched a tracked prediction (unmatched labels
// wait, bounded, for the session to be assessed).
func (m *Monitor) ObserveLabel(l Label) bool {
	if m == nil {
		return false
	}
	m.labelsTotal.Add(1)
	m.lastLabelNano.Store(time.Now().UnixNano())
	st := m.stripe(l.Subscriber)
	st.mu.Lock()
	if i := st.preds.best(func(ps []Prediction) (int, float64) { return bestPredMatch(ps, l.Subscriber, l.Start, l.End) }); i >= 0 {
		p := st.preds.remove(i)
		st.mu.Unlock()
		m.resolve(p, l)
		return true
	}
	if st.labels.push(l, m.pendingCap) {
		m.labelsEvicted.Add(1)
	}
	st.mu.Unlock()
	return false
}

// LastLabelUnixNano returns the wall-clock time the monitor last
// received a ground-truth label (0 = never).
func (m *Monitor) LastLabelUnixNano() int64 {
	if m == nil {
		return 0
	}
	return m.lastLabelNano.Load()
}

// SetOutcomeHook installs a callback invoked for every resolved
// (prediction, label) pair, outside any stripe lock. Wire it before
// traffic; pass nil to detach.
func (m *Monitor) SetOutcomeHook(fn func(Outcome)) {
	if m == nil {
		return
	}
	m.outcome = fn
}

// SetExemplarSource attaches the flight recorder's degraded-model
// exemplar resolver for Snapshot. Wire it before traffic; pass nil to
// detach.
func (m *Monitor) SetExemplarSource(fn func(model string) []string) {
	if m == nil {
		return
	}
	m.exemplars = fn
}

// resolve feeds one matched (prediction, label) pair into both models'
// confusion and labeled-calibration accumulators, then the outcome
// hook. Callers hold no stripe lock here.
func (m *Monitor) resolve(p Prediction, l Label) {
	m.labelsMatched.Add(1)
	m.Stall.observeLabel(p.Stall, p.StallConf, l.Stall)
	m.Rep.observeLabel(p.Rep, p.RepConf, l.Rep)
	if m.outcome != nil {
		m.outcome(Outcome{
			Prediction:   p,
			Label:        l,
			StallCorrect: p.Stall == l.Stall,
			RepCorrect:   p.Rep == l.Rep,
		})
	}
}

// bestLabelMatch finds the buffered label with the largest interval
// overlap against [start, end] for the subscriber (the first of equals)
// and returns it with that overlap, -1 and 0 when none overlaps. The
// engine may split one player session at page boundaries, so a label
// can overlap several assessed fragments; the dominant-overlap
// fragment wins.
func bestLabelMatch(labels []Label, sub string, start, end float64) (int, float64) {
	best, bestOv := -1, 0.0
	for i := range labels {
		l := &labels[i]
		if l.Subscriber != sub {
			continue
		}
		if ov := overlap(start, end, l.Start, l.End); ov > bestOv {
			best, bestOv = i, ov
		}
	}
	return best, bestOv
}

func bestPredMatch(preds []Prediction, sub string, start, end float64) (int, float64) {
	best, bestOv := -1, 0.0
	for i := range preds {
		p := &preds[i]
		if p.Subscriber != sub {
			continue
		}
		if ov := overlap(start, end, p.Start, p.End); ov > bestOv {
			best, bestOv = i, ov
		}
	}
	return best, bestOv
}

func overlap(aStart, aEnd, bStart, bEnd float64) float64 {
	lo, hi := aStart, aEnd
	if bStart > lo {
		lo = bStart
	}
	if bEnd < hi {
		hi = bEnd
	}
	return hi - lo
}

// ModelMonitor accumulates one classifier's serve-time state: lock-free
// per-shard counters on the prediction path plus atomic label-driven
// confusion/calibration cells shared across stripes.
type ModelMonitor struct {
	name    string
	classes []string
	base    *Baseline
	bins    int

	shards []modelShard

	// label-driven state (atomics: resolved under per-stripe locks,
	// potentially from several stripes at once)
	confusion  []atomic.Int64 // nc×nc, [actual*nc + predicted]
	labCount   [ConfBins]atomic.Int64
	labCorrect [ConfBins]atomic.Int64
	labConfSum [ConfBins]obs.FloatCell
	labSkipped atomic.Int64 // labels with out-of-range classes
}

// modelShard is one engine shard's accumulator set; only that shard's
// worker goroutine writes it.
type modelShard struct {
	feat    *obs.Counters // nf×bins feature-bin occupancy (nil without baseline)
	pred    *obs.Counters // per-class prediction counts
	conf    *obs.Counters // ConfBins confidence histogram
	confSum obs.FloatCell // Σ confidence (for the mean)
}

func newModelMonitor(cfg ModelConfig, shards int) *ModelMonitor {
	nc := len(cfg.Classes)
	mm := &ModelMonitor{
		name:      cfg.Name,
		classes:   append([]string(nil), cfg.Classes...),
		base:      cfg.Baseline,
		bins:      cfg.Baseline.Bins(),
		shards:    make([]modelShard, shards),
		confusion: make([]atomic.Int64, nc*nc),
	}
	for i := range mm.shards {
		if mm.base != nil {
			mm.shards[i].feat = obs.NewCounters(len(mm.base.Features) * mm.bins)
		}
		mm.shards[i].pred = obs.NewCounters(nc)
		mm.shards[i].conf = obs.NewCounters(ConfBins)
	}
	return mm
}

// Observe records one prediction: x is the projected feature vector
// (baseline column order), pred the class index, conf the forest's
// top-vote fraction. Called only by shard's own worker; the counters
// are atomic so Snapshot can read concurrently.
func (mm *ModelMonitor) Observe(shard int, x []float64, pred int, conf float64) {
	if mm == nil || len(mm.shards) == 0 {
		return
	}
	sh := &mm.shards[shard%len(mm.shards)]
	if pred >= 0 && pred < sh.pred.Len() {
		sh.pred.Inc(pred)
	}
	sh.conf.Inc(ConfBin(conf, ConfBins))
	sh.confSum.Add(conf)
	if mm.base != nil {
		for f, edges := range mm.base.Edges {
			sh.feat.Inc(f*mm.bins + BinIndex(edges, x[f]))
		}
	}
}

// observeLabel records one matched (predicted, actual) pair.
func (mm *ModelMonitor) observeLabel(pred int, conf float64, actual int) {
	if mm == nil {
		return
	}
	nc := len(mm.classes)
	if pred < 0 || pred >= nc || actual < 0 || actual >= nc {
		mm.labSkipped.Add(1)
		return
	}
	mm.confusion[actual*nc+pred].Add(1)
	b := ConfBin(conf, ConfBins)
	mm.labCount[b].Add(1)
	mm.labConfSum[b].Add(conf)
	if actual == pred {
		mm.labCorrect[b].Add(1)
	}
}
