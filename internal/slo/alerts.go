package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// State is an alert's position in the Prometheus-style lifecycle.
// The numeric values are stable — they are exported verbatim as the
// vqoe_alert_state gauge.
type State uint8

const (
	Inactive  State = iota // condition clear
	Pending                // breached, waiting out the for-duration
	Firing                 // breached for at least the for-duration
	Resolved               // recently cleared after firing
	NumStates = 4
)

func (s State) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Pending:
		return "pending"
	case Firing:
		return "firing"
	case Resolved:
		return "resolved"
	}
	return "unknown"
}

// resolvedRetainSec is how long a resolved alert keeps the Resolved
// state before ageing back to Inactive. It stays visible in
// /debug/alerts' recent-resolved list regardless.
const resolvedRetainSec = 600

// recentResolvedCap bounds the recent-resolved ring.
const recentResolvedCap = 32

// FiringRecord captures an alert's condition at its worst moment of
// the last firing episode; resolved alerts retain it so an operator
// arriving after recovery still sees what happened.
type FiringRecord struct {
	StartedAt  float64 `json:"started_at"`
	ResolvedAt float64 `json:"resolved_at,omitempty"`
	PeakValue  float64 `json:"peak_value"`
	Detail     string  `json:"detail"`
}

// Alert is the JSON view of one rule's current alert state.
type Alert struct {
	Rule        string           `json:"rule"`
	Help        string           `json:"help,omitempty"`
	State       string           `json:"state"`
	StateCode   int              `json:"state_code"`
	Since       float64          `json:"since"`
	Value       *float64         `json:"value,omitempty"`
	Detail      string           `json:"detail,omitempty"`
	ForSec      float64          `json:"for_sec"`
	LastFiring  *FiringRecord    `json:"last_firing,omitempty"`
	Transitions map[string]int64 `json:"transitions,omitempty"`
}

// AlertsSnapshot is served at /debug/alerts: every rule worst-first,
// plus the bounded ring of recently resolved episodes.
type AlertsSnapshot struct {
	Now            float64       `json:"now"`
	Firing         int           `json:"firing"`
	Pending        int           `json:"pending"`
	Alerts         []Alert       `json:"alerts"`
	RecentResolved []FiringEntry `json:"recent_resolved,omitempty"`
}

// WriteSummary renders the closing SLO alert report every live tool
// ends a run with: each rule that is not quietly inactive, worst state
// first, plus the firing episodes that resolved during the run. A
// healthy run prints a single all-clear line.
func (s AlertsSnapshot) WriteSummary(w io.Writer) {
	var noisy []Alert
	for _, a := range s.Alerts {
		if a.StateCode != int(Inactive) {
			noisy = append(noisy, a)
		}
	}
	if len(noisy) == 0 && len(s.RecentResolved) == 0 {
		fmt.Fprintf(w, "-- slo: all %d alert rules inactive\n", len(s.Alerts))
		return
	}
	fmt.Fprintf(w, "-- slo alerts (%d firing, %d pending):\n", s.Firing, s.Pending)
	for _, a := range noisy {
		fmt.Fprintf(w, "--   %-20s %-8s", a.Rule, a.State)
		if a.Value != nil {
			fmt.Fprintf(w, " value %.4g", *a.Value)
		}
		if a.Detail != "" {
			fmt.Fprintf(w, "  %s", a.Detail)
		}
		fmt.Fprintln(w)
	}
	for _, ep := range s.RecentResolved {
		fmt.Fprintf(w, "--   resolved %-11s fired %.0fs, peak %.4g  %s\n",
			ep.Rule, ep.ResolvedAt-ep.StartedAt, ep.PeakValue, ep.Detail)
	}
}

// FiringEntry is one completed firing episode in the recent-resolved
// ring.
type FiringEntry struct {
	Rule string `json:"rule"`
	FiringRecord
}

// Transition is one JSONL alert-log line.
type Transition struct {
	TS     float64 `json:"ts"`
	Rule   string  `json:"rule"`
	From   string  `json:"from"`
	To     string  `json:"to"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

type ruleState struct {
	rule        Rule
	state       State
	since       float64 // entered current state
	clearSince  float64 // firing only: first consecutive clear tick
	value       float64
	detail      string
	episode     *FiringRecord // in-progress or retained firing episode
	transitions [NumStates]int64
}

// Manager owns the alert state machine for a set of rules. Evaluate
// advances every rule one tick; at most one state transition happens
// per rule per tick, so a breach can never skip Pending on its way to
// Firing.
type Manager struct {
	mu     sync.Mutex
	states []*ruleState
	recent []FiringEntry // newest last, bounded by recentResolvedCap
	enc    *json.Encoder
	// forSec and clearForSec are ForSec and ClearForSec; tests of the
	// state machine shorten them
	forSec, clearForSec float64
}

// NewManager returns a Manager logging transitions as JSONL to w
// (nil = no log).
func NewManager(w io.Writer) *Manager {
	m := &Manager{forSec: ForSec, clearForSec: ClearForSec}
	if w != nil {
		m.enc = json.NewEncoder(w)
	}
	return m
}

// AddRule registers a rule; safe while Evaluate is running.
func (m *Manager) AddRule(r Rule) {
	m.mu.Lock()
	m.states = append(m.states, &ruleState{rule: r})
	m.mu.Unlock()
}

// Evaluate advances every rule one tick against the history at time
// now (unix seconds).
func (m *Manager) Evaluate(h *History, now float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.states {
		value, breached, detail := st.rule.Eval(h, now)
		st.value, st.detail = value, detail
		m.step(st, now, breached)
	}
}

func (m *Manager) step(st *ruleState, now float64, breached bool) {
	switch st.state {
	case Inactive:
		if breached {
			m.transition(st, now, Pending)
		}
	case Pending:
		if !breached {
			m.transition(st, now, Inactive)
		} else if now-st.since >= m.forSec {
			m.transition(st, now, Firing)
			st.episode = &FiringRecord{StartedAt: now, PeakValue: st.value, Detail: st.detail}
			st.clearSince = 0
		}
	case Firing:
		if breached {
			st.clearSince = 0
			if st.episode != nil && !math.IsNaN(st.value) &&
				(math.IsNaN(st.episode.PeakValue) || st.value > st.episode.PeakValue) {
				st.episode.PeakValue = st.value
				st.episode.Detail = st.detail
			}
		} else {
			if st.clearSince == 0 {
				st.clearSince = now
			}
			if now-st.clearSince >= m.clearForSec {
				m.transition(st, now, Resolved)
				if st.episode != nil {
					st.episode.ResolvedAt = now
					m.recent = append(m.recent, FiringEntry{Rule: st.rule.Name, FiringRecord: *st.episode})
					if len(m.recent) > recentResolvedCap {
						m.recent = m.recent[len(m.recent)-recentResolvedCap:]
					}
				}
			}
		}
	case Resolved:
		if breached {
			m.transition(st, now, Pending)
		} else if now-st.since >= resolvedRetainSec {
			m.transition(st, now, Inactive)
		}
	}
}

func (m *Manager) transition(st *ruleState, now float64, to State) {
	from := st.state
	st.state = to
	st.since = now
	st.transitions[to]++
	if m.enc != nil {
		_ = m.enc.Encode(Transition{
			TS: now, Rule: st.rule.Name,
			From: from.String(), To: to.String(),
			Value: sanitize(st.value), Detail: st.detail,
		})
	}
}

// sanitize maps NaN/Inf to 0 for the JSON log (encoding/json rejects
// them).
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// stateRank orders alerts worst-first: firing > pending > resolved >
// inactive.
func stateRank(s State) int {
	switch s {
	case Firing:
		return 3
	case Pending:
		return 2
	case Resolved:
		return 1
	}
	return 0
}

// Snapshot returns the current alert table, worst-first; ties break by
// longest-standing state then rule name.
func (m *Manager) Snapshot(now float64) AlertsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := AlertsSnapshot{Now: now}
	for _, st := range m.states {
		a := Alert{
			Rule:      st.rule.Name,
			Help:      st.rule.Help,
			State:     st.state.String(),
			StateCode: int(st.state),
			Since:     st.since,
			Detail:    st.detail,
			ForSec:    m.forSec,
		}
		if v := st.value; !math.IsNaN(v) && !math.IsInf(v, 0) {
			a.Value = &v
		}
		if st.episode != nil && (st.state == Firing || st.state == Resolved) {
			ep := *st.episode
			a.LastFiring = &ep
		}
		a.Transitions = map[string]int64{}
		for s := State(0); s < NumStates; s++ {
			if n := st.transitions[s]; n > 0 {
				a.Transitions[s.String()] = n
			}
		}
		if len(a.Transitions) == 0 {
			a.Transitions = nil
		}
		switch st.state {
		case Firing:
			out.Firing++
		case Pending:
			out.Pending++
		}
		out.Alerts = append(out.Alerts, a)
	}
	sort.Slice(out.Alerts, func(i, j int) bool {
		ai, aj := out.Alerts[i], out.Alerts[j]
		ri, rj := stateRank(State(ai.StateCode)), stateRank(State(aj.StateCode))
		if ri != rj {
			return ri > rj
		}
		if ai.Since != aj.Since {
			return ai.Since < aj.Since
		}
		return ai.Rule < aj.Rule
	})
	for i := len(m.recent) - 1; i >= 0; i-- {
		out.RecentResolved = append(out.RecentResolved, m.recent[i])
	}
	return out
}

// StateRow is one rule's exposition view.
type StateRow struct {
	Rule        string
	State       State
	Transitions [NumStates]int64
}

// StateRows returns per-rule state and transition counters sorted by
// rule name, for the deterministic /metrics exposition.
func (m *Manager) StateRows() []StateRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]StateRow, 0, len(m.states))
	for _, st := range m.states {
		rows = append(rows, StateRow{Rule: st.rule.Name, State: st.state, Transitions: st.transitions})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Rule < rows[j].Rule })
	return rows
}
