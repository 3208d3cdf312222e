// Package cohort is the fleet-level rollup layer: it folds the
// engine's per-session QoE assessments into exact per-cohort MOS
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
//   - constant memory per cohort: a report can score only
//     mos.NumScores (18) distinct MOS values, so a cohort is one
//     mos.Tally of 18 counts, from which the session count, mean,
//     impairment counts and p10/p50/p90 are all read exactly;
//   - bounded cardinality: each stripe holds at most MaxCohorts keys,
//     evicting the least-recently-updated cohort into a shared
//     overflow bucket, so a hostile or misconfigured metadata feed
//     cannot explode the label space of the Prometheus exposition.
//
// A fleet view sums the stripes' tallies on demand. Tallies add
// exactly, so the view — overflow included — is the same whatever
// order the sessions arrived in and whichever shard counted them.
package cohort

import (
	"sort"
	"sync"

	"vqoe/internal/core"
	"vqoe/internal/mos"
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

// cell is one cohort's sessions within one stripe.
type cell struct {
	key   Key
	tally mos.Tally
	touch uint64
}

// stripe is the per-shard state: a bounded map written only by that
// shard's worker, locked so snapshots can read it.
type stripe struct {
	mu       sync.Mutex
	cells    map[Key]*cell
	overflow mos.Tally // evicted cohorts' sessions
	evicted  int64     // distinct keys evicted from this stripe
	seq      uint64
}

// Rollup maintains the striped per-cohort tallies. All methods are safe
// on a nil receiver (no-ops), so call sites can leave rollups
// unconfigured.
type Rollup struct {
	cfg     Config
	stripes []*stripe
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
// the report's MOS slot is counted in the shard's stripe. Called from
// the engine shard worker that owns the session.
func (r *Rollup) Observe(shard int, key Key, rep core.Report) {
	if r == nil {
		return
	}
	s := r.stripes[shard%len(r.stripes)]
	s.mu.Lock()
	c := s.cells[key]
	if c == nil {
		if len(s.cells) >= r.cfg.MaxCohorts {
			s.evictLocked()
		}
		c = &cell{key: key}
		s.cells[key] = c
	}
	s.seq++
	c.touch = s.seq
	c.tally.Observe(rep)
	s.mu.Unlock()
}

// evictLocked folds the least-recently-updated cohort into the
// stripe's overflow tally. O(cells) scans only happen on eviction,
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
	s.overflow.Add(&victim.tally)
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
	// cohort ("subscriber/start" IDs, worst MOS first). Snapshot leaves
	// it empty; the /debug/cohorts handler fills it from the recorder.
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

// Snapshot merges all stripes into the fleet view, one row per label:
// the tallies of every key that renders it (region "" and "-" both
// render "-"), summed over the stripes, under the smallest such key.
func (r *Rollup) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	byKey := make(map[Key]*mos.Tally)
	var over mos.Tally
	var evicted int64
	for _, s := range r.stripes {
		s.mu.Lock()
		for k, c := range s.cells {
			t := byKey[k]
			if t == nil {
				t = new(mos.Tally)
				byKey[k] = t
			}
			t.Add(&c.tally)
		}
		over.Add(&s.overflow)
		evicted += s.evicted
		s.mu.Unlock()
	}

	// Fleet-level cap: stripes may each hold MaxCohorts distinct keys,
	// so the union can exceed the cap. Keep the busiest cohorts and
	// fold the rest into overflow, deterministically (sessions desc,
	// then key) so the exposition is stable for a given state.
	type row struct {
		label string
		key   Key
		t     *mos.Tally
	}
	all := make([]row, 0, len(byKey))
	at := make(map[string]int, len(byKey))
	for k, t := range byKey {
		label := k.String()
		if i, ok := at[label]; ok {
			if all[i].t.Add(t); lessKey(k, all[i].key) {
				all[i].key = k
			}
			continue
		}
		at[label], all = len(all), append(all, row{label, k, t})
	}
	sort.Slice(all, func(i, j int) bool {
		if ni, nj := all[i].t.Count(), all[j].t.Count(); ni != nj {
			return ni > nj
		}
		return lessKey(all[i].key, all[j].key)
	})
	if len(all) > r.cfg.MaxCohorts {
		for _, a := range all[r.cfg.MaxCohorts:] {
			over.Add(a.t)
			evicted++
		}
		all = all[:r.cfg.MaxCohorts]
	}

	snap := &Snapshot{Capacity: r.cfg.MaxCohorts, Evicted: evicted}
	for _, a := range all {
		st := statsOf(a.label, a.key, a.t)
		snap.Cohorts = append(snap.Cohorts, st)
		snap.Total += st.Sessions
	}
	if over.Count() > 0 {
		st := statsOf("overflow", Key{}, &over)
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

// statsOf reads one cohort's fleet-view row, labelled label, off its
// tally.
func statsOf(label string, k Key, t *mos.Tally) Stats {
	st := Stats{
		Cohort:   label,
		Region:   k.Region,
		Device:   k.Device,
		Cap:      k.Cap,
		Sessions: t.Count(),
		MOSMean:  t.Mean(),
		MOSP10:   t.Percentile(10),
		MOSP50:   t.Percentile(50),
		MOSP90:   t.Percentile(90),
	}
	st.Stalled, st.LowQuality, st.Switched = t.Impaired()
	if st.Sessions > 0 {
		n := float64(st.Sessions)
		st.StallRate = float64(st.Stalled) / n
		st.LowQualityRate = float64(st.LowQuality) / n
		st.SwitchRate = float64(st.Switched) / n
	}
	st.Verbal = mos.Score(st.MOSP50).Verbal()
	return st
}
