// Package cohort is the fleet-level rollup layer: it folds the
// engine's per-session QoE assessments into streaming per-cohort MOS
// quantiles and impairment rates, so the system answers "which cell
// is hurting HD viewers right now?" instead of emitting millions of
// individual verdicts.
//
// A cohort is the operator-side metadata triple joined onto the
// traffic feed — serving region / device class / plan quality cap.
// The rollup is designed for million-subscriber ingest:
//
//   - lock-cheap: state is striped per engine shard, each stripe
//     written only by its shard's worker goroutine, so the per-session
//     observe path contends only with an occasional snapshot reader;
//   - constant memory per cohort: MOS quantiles (p10/p50/p90) are P²
//     streaming estimators, never buffered samples;
//   - bounded cardinality: each stripe holds at most MaxCohorts keys,
//     evicting the least-recently-updated cohort into a shared
//     overflow bucket, so a hostile or misconfigured metadata feed
//     cannot explode the label space of the Prometheus exposition.
//
// A fleet view merges the stripes on demand: per-cohort P² marker
// sets are pooled via stats.MergedQuantile (merge(a,b) ≈ combined
// stream, property-tested in internal/stats), counters are summed,
// and the merged view is cached by generation so idle scrapes are
// free.
package cohort

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/mos"
	"vqoe/internal/stats"
)

// Key identifies one rollup cohort.
type Key struct {
	Region string
	Device string
	Cap    string
}

// String renders the key as the single Prometheus label value
// "region/device/cap", with "-" for missing dimensions. The zero key
// (no metadata join at all) renders as "unknown".
func (k Key) String() string {
	if k == (Key{}) {
		return "unknown"
	}
	return orDash(k.Region) + "/" + orDash(k.Device) + "/" + orDash(k.Cap)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Config sizes a Rollup.
type Config struct {
	// Shards is the stripe count; use the engine's shard count so each
	// worker goroutine owns one stripe. Minimum 1.
	Shards int
	// MaxCohorts caps the per-stripe and fleet-view cohort cardinality.
	// Beyond it, least-recently-updated cohorts fold into the overflow
	// bucket. Default 64.
	MaxCohorts int
}

// DefaultMaxCohorts bounds the label cardinality when Config leaves
// MaxCohorts zero: 64 cohorts × ~8 series each stays far under any
// scrape budget while covering every realistic region×device×cap grid.
const DefaultMaxCohorts = 64

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.MaxCohorts < 1 {
		c.MaxCohorts = DefaultMaxCohorts
	}
	return c
}

// cell accumulates one cohort's state within one stripe.
type cell struct {
	key      Key
	sessions int64
	mosSum   float64
	p10      *stats.P2Quantile
	p50      *stats.P2Quantile
	p90      *stats.P2Quantile
	stalled  int64 // sessions with detected stalls
	lowQual  int64 // sessions classified LD
	switched int64 // sessions with quality-switching variance
	touch    uint64
}

func newCell(key Key) *cell {
	return &cell{
		key: key,
		p10: stats.NewP2Quantile(0.10),
		p50: stats.NewP2Quantile(0.50),
		p90: stats.NewP2Quantile(0.90),
	}
}

func (c *cell) observe(score float64, rep core.Report) {
	c.sessions++
	c.mosSum += score
	c.p10.Observe(score)
	c.p50.Observe(score)
	c.p90.Observe(score)
	if rep.Stall != features.NoStall {
		c.stalled++
	}
	if rep.Representation == features.LD {
		c.lowQual++
	}
	if rep.SwitchVariance {
		c.switched++
	}
}

// fold merges another cell's counters and quantile markers into an
// aggregation cell (used for both the fleet merge and overflow).
type agg struct {
	key      Key
	sessions int64
	mosSum   float64
	stalled  int64
	lowQual  int64
	switched int64
	m10      []stats.Marker
	m50      []stats.Marker
	m90      []stats.Marker
}

func (a *agg) fold(c *cell) {
	a.sessions += c.sessions
	a.mosSum += c.mosSum
	a.stalled += c.stalled
	a.lowQual += c.lowQual
	a.switched += c.switched
	a.m10 = c.p10.Markers(a.m10)
	a.m50 = c.p50.Markers(a.m50)
	a.m90 = c.p90.Markers(a.m90)
}

func (a *agg) foldAgg(b *agg) {
	a.sessions += b.sessions
	a.mosSum += b.mosSum
	a.stalled += b.stalled
	a.lowQual += b.lowQual
	a.switched += b.switched
	a.m10 = append(a.m10, b.m10...)
	a.m50 = append(a.m50, b.m50...)
	a.m90 = append(a.m90, b.m90...)
}

// stripe is the per-shard state: a bounded map written only by that
// shard's worker, locked so snapshots can read it.
type stripe struct {
	mu       sync.Mutex
	cells    map[Key]*cell
	overflow *cell // evicted cohorts fold their future sessions here
	evicted  int64 // distinct keys evicted from this stripe
	seq      uint64
}

// Rollup maintains the striped per-cohort accumulators and the cached
// fleet view. All methods are safe on a nil receiver (no-ops), so
// call sites can leave rollups unconfigured.
type Rollup struct {
	cfg     Config
	stripes []*stripe
	gen     atomic.Uint64 // bumped on every observe; keys the cache

	// lastObserveNano is the wall-clock time (unix nanos) of the most
	// recent Observe — the freshness watchdog's rollup tap (0 = never).
	lastObserveNano atomic.Int64

	cacheMu  sync.Mutex
	cacheGen uint64
	cache    *Snapshot

	// exemplars, when set, resolves a cohort key to retained
	// flight-recorder session IDs so /debug/cohorts entries link
	// straight to per-session timelines. Set once at wiring time,
	// before traffic.
	exemplars func(cohort string) []string
}

// NewRollup builds a rollup with cfg.Shards stripes.
func NewRollup(cfg Config) *Rollup {
	cfg = cfg.WithDefaults()
	r := &Rollup{cfg: cfg, stripes: make([]*stripe, cfg.Shards)}
	for i := range r.stripes {
		r.stripes[i] = &stripe{cells: make(map[Key]*cell, cfg.MaxCohorts)}
	}
	return r
}

// Observe attributes one completed session assessment to its cohort:
// the report is converted to a MOS and folded into the shard's stripe.
// Called from the engine shard worker that owns the session.
func (r *Rollup) Observe(shard int, key Key, rep core.Report) {
	if r == nil {
		return
	}
	score := float64(mos.FromReport(rep))
	s := r.stripes[shard%len(r.stripes)]
	s.mu.Lock()
	c := s.cells[key]
	if c == nil {
		if len(s.cells) >= r.cfg.MaxCohorts {
			s.evictLocked()
		}
		c = newCell(key)
		s.cells[key] = c
	}
	s.seq++
	c.touch = s.seq
	c.observe(score, rep)
	s.mu.Unlock()
	r.gen.Add(1)
	r.lastObserveNano.Store(time.Now().UnixNano())
}

// LastObserveUnixNano returns the wall-clock time of the most recent
// Observe (0 = never).
func (r *Rollup) LastObserveUnixNano() int64 {
	if r == nil {
		return 0
	}
	return r.lastObserveNano.Load()
}

// evictLocked folds the least-recently-updated cohort into the
// stripe's overflow bucket. O(cells) scans only happen on eviction,
// which a sane metadata feed never triggers.
func (s *stripe) evictLocked() {
	var victim *cell
	for _, c := range s.cells {
		if victim == nil || c.touch < victim.touch {
			victim = c
		}
	}
	if victim == nil {
		return
	}
	delete(s.cells, victim.key)
	s.evicted++
	if s.overflow == nil {
		s.overflow = newCell(Key{})
	}
	// fold the victim's counters into overflow; its quantile state is
	// approximated by replaying the P² markers as weighted mass
	o := s.overflow
	o.sessions += victim.sessions
	o.mosSum += victim.mosSum
	o.stalled += victim.stalled
	o.lowQual += victim.lowQual
	o.switched += victim.switched
	replayMarkers(o.p10, victim.p10)
	replayMarkers(o.p50, victim.p50)
	replayMarkers(o.p90, victim.p90)
}

// replayMarkers folds src's distribution summary into dst by feeding
// each marker value round(weight) times — a coarse but bounded-cost
// approximation, only ever used on the eviction path.
func replayMarkers(dst, src *stats.P2Quantile) {
	for _, m := range src.Markers(nil) {
		n := int(m.Weight + 0.5)
		if n < 1 {
			n = 1
		}
		if n > 64 {
			n = 64 // cap replay cost; overflow is approximate by design
		}
		for i := 0; i < n; i++ {
			dst.Observe(m.Value)
		}
	}
}

// Stats is one cohort's merged fleet-view statistics.
type Stats struct {
	Cohort   string  `json:"cohort"`
	Region   string  `json:"region,omitempty"`
	Device   string  `json:"device,omitempty"`
	Cap      string  `json:"cap,omitempty"`
	Sessions int64   `json:"sessions"`
	MOSMean  float64 `json:"mos_mean"`
	MOSP10   float64 `json:"mos_p10"`
	MOSP50   float64 `json:"mos_p50"`
	MOSP90   float64 `json:"mos_p90"`
	Verbal   string  `json:"verbal"`
	// Impairment rates over the cohort's sessions, in [0, 1].
	StallRate      float64 `json:"stall_rate"`
	LowQualityRate float64 `json:"low_quality_rate"`
	SwitchRate     float64 `json:"switch_rate"`
	// Raw impairment counts behind the rates (exact, for counters).
	Stalled    int64 `json:"stalled"`
	LowQuality int64 `json:"low_quality"`
	Switched   int64 `json:"switched"`
	// Exemplars links to retained flight-recorder sessions from this
	// cohort ("subscriber/start" IDs, worst MOS first), when a flight
	// recorder is wired. Filled per Snapshot call, never cached.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Snapshot is the merged fleet view served by /debug/cohorts.
type Snapshot struct {
	// Cohorts is sorted worst-first: ascending p50 MOS, ties broken by
	// key, so the top of the list is what an operator pages on.
	Cohorts []Stats `json:"cohorts"`
	// Overflow aggregates sessions whose cohorts were evicted by the
	// cardinality cap; nil when the cap never bit.
	Overflow *Stats `json:"overflow,omitempty"`
	Total    int64  `json:"total_sessions"`
	Capacity int    `json:"capacity"`
	// Evicted counts distinct cohort keys folded into overflow.
	Evicted int64 `json:"evicted_cohorts"`
}

// SetExemplars attaches the flight recorder's exemplar resolver so
// each cohort's snapshot entry carries links to retained per-session
// timelines. Wire it before traffic; pass nil to detach.
func (r *Rollup) SetExemplars(fn func(cohort string) []string) {
	if r == nil {
		return
	}
	r.exemplars = fn
}

// Snapshot merges all stripes into the fleet view. The result is
// cached by generation: repeated calls with no intervening Observe
// return the same snapshot without touching the stripes. Exemplar
// links are resolved outside the cache — eviction changes them even
// when the rollup itself is idle — so the cached entries stay clean
// and each call decorates a fresh copy.
func (r *Rollup) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	gen := r.gen.Load()
	r.cacheMu.Lock()
	if r.cache == nil || r.cacheGen != gen {
		// Key the cache on the generation read before merging: an
		// observe landing mid-merge bumps gen past it, so the next call
		// re-merges and the racing session is never lost from the
		// served view.
		r.cache = r.merge()
		r.cacheGen = gen
	}
	snap := r.cache
	r.cacheMu.Unlock()
	if r.exemplars == nil {
		return snap
	}
	out := *snap
	out.Cohorts = make([]Stats, len(snap.Cohorts))
	copy(out.Cohorts, snap.Cohorts)
	for i := range out.Cohorts {
		out.Cohorts[i].Exemplars = r.exemplars(out.Cohorts[i].Cohort)
	}
	return &out
}

func (r *Rollup) merge() *Snapshot {
	byKey := make(map[Key]*agg)
	over := &agg{}
	var evicted int64
	for _, s := range r.stripes {
		s.mu.Lock()
		for k, c := range s.cells {
			a := byKey[k]
			if a == nil {
				a = &agg{key: k}
				byKey[k] = a
			}
			a.fold(c)
		}
		if s.overflow != nil {
			over.fold(s.overflow)
		}
		evicted += s.evicted
		s.mu.Unlock()
	}

	// Fleet-level cap: stripes may each hold MaxCohorts distinct keys,
	// so the union can exceed the cap. Keep the busiest cohorts and
	// fold the rest into overflow, deterministically (sessions desc,
	// then key) so the exposition is stable for a given state.
	all := make([]*agg, 0, len(byKey))
	for _, a := range byKey {
		all = append(all, a)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].sessions != all[j].sessions {
			return all[i].sessions > all[j].sessions
		}
		return lessKey(all[i].key, all[j].key)
	})
	if len(all) > r.cfg.MaxCohorts {
		for _, a := range all[r.cfg.MaxCohorts:] {
			over.foldAgg(a)
			evicted++
		}
		all = all[:r.cfg.MaxCohorts]
	}

	snap := &Snapshot{Capacity: r.cfg.MaxCohorts, Evicted: evicted}
	for _, a := range all {
		st := a.stats()
		snap.Cohorts = append(snap.Cohorts, st)
		snap.Total += st.Sessions
	}
	if over.sessions > 0 {
		st := over.stats()
		st.Cohort = "overflow"
		st.Region, st.Device, st.Cap = "", "", ""
		snap.Overflow = &st
		snap.Total += st.Sessions
	}
	sort.Slice(snap.Cohorts, func(i, j int) bool {
		if snap.Cohorts[i].MOSP50 != snap.Cohorts[j].MOSP50 {
			return snap.Cohorts[i].MOSP50 < snap.Cohorts[j].MOSP50
		}
		return snap.Cohorts[i].Cohort < snap.Cohorts[j].Cohort
	})
	return snap
}

func lessKey(a, b Key) bool {
	if a.Region != b.Region {
		return a.Region < b.Region
	}
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	return a.Cap < b.Cap
}

func (a *agg) stats() Stats {
	st := Stats{
		Cohort:     a.key.String(),
		Region:     a.key.Region,
		Device:     a.key.Device,
		Cap:        a.key.Cap,
		Sessions:   a.sessions,
		MOSP10:     stats.MergedQuantile(0.10, a.m10),
		MOSP50:     stats.MergedQuantile(0.50, a.m50),
		MOSP90:     stats.MergedQuantile(0.90, a.m90),
		Stalled:    a.stalled,
		LowQuality: a.lowQual,
		Switched:   a.switched,
	}
	if a.sessions > 0 {
		n := float64(a.sessions)
		st.MOSMean = a.mosSum / n
		st.StallRate = float64(a.stalled) / n
		st.LowQualityRate = float64(a.lowQual) / n
		st.SwitchRate = float64(a.switched) / n
	}
	st.Verbal = mos.Score(st.MOSP50).Verbal()
	return st
}
