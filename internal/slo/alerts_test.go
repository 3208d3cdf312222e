package slo

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// scriptedRule breaches according to a preset schedule.
type scripted struct {
	breach []bool
	tick   int
}

func (s *scripted) rule(name string) Rule {
	return Rule{
		Name: name,
		Eval: func(h *History, now float64) (float64, bool, string) {
			b := s.breach[s.tick%len(s.breach)]
			s.tick++
			v := 0.0
			if b {
				v = float64(s.tick)
			}
			return v, b, "scripted"
		},
	}
}

// newManager returns a Manager whose hysteresis is forSec/clearSec
// instead of ForSec/ClearForSec.
func newManager(w io.Writer, forSec, clearSec float64) *Manager {
	m := NewManager(w)
	m.forSec, m.clearForSec = forSec, clearSec
	return m
}

func states(m *Manager, h *History, seq []bool) []State {
	s := &scripted{breach: seq}
	m.AddRule(s.rule("r"))
	var out []State
	for i := range seq {
		m.Evaluate(h, float64(i))
		out = append(out, m.StateRows()[0].State)
	}
	return out
}

// TestAlertLifecycleBasic walks one breach episode end to end.
func TestAlertLifecycleBasic(t *testing.T) {
	h := NewHistory(4)
	var log bytes.Buffer
	// breach for 6 ticks, clear for 6. for=2s, clearFor=2s, 1 tick/s.
	m := newManager(&log, 2, 2)
	seq := []bool{true, true, true, true, true, true, false, false, false, false, false, false}
	got := states(m, h, seq)
	want := []State{
		Pending, Pending, Firing, Firing, Firing, Firing, // fires once breach held 2s
		Firing, Firing, Resolved, Resolved, Resolved, Resolved, // resolves once clear held 2s
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tick %d: state %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	// The JSONL log must show the exact transition sequence.
	var tos []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var tr Transition
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		tos = append(tos, tr.From+">"+tr.To)
	}
	wantLog := []string{"inactive>pending", "pending>firing", "firing>resolved"}
	if len(tos) != len(wantLog) {
		t.Fatalf("log transitions %v, want %v", tos, wantLog)
	}
	for i := range wantLog {
		if tos[i] != wantLog[i] {
			t.Fatalf("log transitions %v, want %v", tos, wantLog)
		}
	}
}

// TestAlertTransitionsProperty drives the state machine with random
// breach/clear sequences and asserts the invariants the ISSUE pins:
// Firing is only ever entered from Pending (never skipped), the
// for-duration is honored (a breach run shorter than ForSec never
// fires), resolve requires a sustained clear, and resolved alerts
// retain the last firing snapshot.
func TestAlertTransitionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		forSec := float64(rng.Intn(5))
		clearSec := float64(1 + rng.Intn(4))
		n := 60 + rng.Intn(120)
		seq := make([]bool, n)
		for i := range seq {
			// Random runs: flip with p=0.25 so runs straddle ForSec.
			if i == 0 {
				seq[i] = rng.Intn(2) == 0
			} else if rng.Float64() < 0.25 {
				seq[i] = !seq[i-1]
			} else {
				seq[i] = seq[i-1]
			}
		}
		h := NewHistory(4)
		m := newManager(nil, forSec, clearSec)
		sc := &scripted{breach: seq}
		m.AddRule(sc.rule("r"))

		prev := Inactive
		var breachRun, clearRun float64
		for i := range seq {
			m.Evaluate(h, float64(i))
			cur := m.StateRows()[0].State
			if seq[i] {
				breachRun++
				clearRun = 0
			} else {
				clearRun++
				breachRun = 0
			}
			if cur != prev {
				// Legal transitions only; Firing entered solely from
				// Pending.
				legal := map[[2]State]bool{
					{Inactive, Pending}:  true,
					{Pending, Inactive}:  true,
					{Pending, Firing}:    true,
					{Firing, Resolved}:   true,
					{Resolved, Pending}:  true,
					{Resolved, Inactive}: true,
				}
				if !legal[[2]State{prev, cur}] {
					t.Fatalf("trial %d tick %d: illegal transition %v -> %v", trial, i, prev, cur)
				}
				if cur == Firing {
					// for-duration honored: the breach must have been
					// held at least ForSec (>= forSec+1 consecutive
					// breach ticks at 1s cadence).
					if breachRun < forSec+1 {
						t.Fatalf("trial %d tick %d: fired after %v breach ticks, for=%v",
							trial, i, breachRun, forSec)
					}
				}
				if cur == Resolved {
					if clearRun < clearSec+1 {
						t.Fatalf("trial %d tick %d: resolved after %v clear ticks, clearFor=%v",
							trial, i, clearRun, clearSec)
					}
					// Resolved alerts retain the last-firing snapshot.
					snap := m.Snapshot(float64(i))
					var found *Alert
					for j := range snap.Alerts {
						if snap.Alerts[j].Rule == "r" {
							found = &snap.Alerts[j]
						}
					}
					if found == nil || found.LastFiring == nil {
						t.Fatalf("trial %d tick %d: resolved alert lost its firing record", trial, i)
					}
					if found.LastFiring.ResolvedAt != float64(i) {
						t.Fatalf("trial %d: resolved_at = %v, want %v",
							trial, found.LastFiring.ResolvedAt, float64(i))
					}
				}
			}
			prev = cur
		}
	}
}

// TestAlertSnapshotOrdering pins worst-first: firing > pending >
// resolved > inactive, ties by since then name.
func TestAlertSnapshotOrdering(t *testing.T) {
	h := NewHistory(4)
	m := newManager(nil, 1, 1)
	mk := func(name string, breach []bool) {
		s := &scripted{breach: breach}
		m.AddRule(s.rule(name))
	}
	mk("b-firing", []bool{true, true, true, true})
	mk("a-firing", []bool{true, true, true, true})
	mk("c-pending", []bool{false, false, false, true})
	mk("d-inactive", []bool{false, false, false, false})
	for i := 0; i < 4; i++ {
		m.Evaluate(h, float64(i))
	}
	snap := m.Snapshot(4)
	var order []string
	for _, a := range snap.Alerts {
		order = append(order, a.Rule)
	}
	want := []string{"a-firing", "b-firing", "c-pending", "d-inactive"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if snap.Firing != 2 || snap.Pending != 1 {
		t.Fatalf("firing/pending = %d/%d, want 2/1", snap.Firing, snap.Pending)
	}
}

// TestAlertPeakTracking checks the firing record carries the episode's
// worst value.
func TestAlertPeakTracking(t *testing.T) {
	h := NewHistory(4)
	m := newManager(nil, 0, 1)
	vals := []float64{1, 5, 9, 3, math.NaN(), 2}
	i := 0
	m.AddRule(Rule{
		Name: "peak",
		Eval: func(*History, float64) (float64, bool, string) {
			v := vals[i%len(vals)]
			i++
			return v, i <= len(vals), "ep"
		},
	})
	for tick := 0; tick <= len(vals)+3; tick++ {
		m.Evaluate(h, float64(tick))
	}
	snap := m.Snapshot(100)
	a := snap.Alerts[0]
	if a.LastFiring == nil {
		t.Fatal("no firing record")
	}
	if a.LastFiring.PeakValue != 9 {
		t.Fatalf("peak = %v, want 9", a.LastFiring.PeakValue)
	}
}

// TestWriteSummary pins the closing alert report qoewatch, qoepcap and
// qoeserve print: one all-clear line when every rule is inactive,
// otherwise the noisy rules worst-first and a row per resolved episode.
func TestWriteSummary(t *testing.T) {
	for _, tc := range []struct {
		snap AlertsSnapshot
		want string
	}{
		{AlertsSnapshot{}, "-- slo: all 0 alert rules inactive\n"},
		{AlertsSnapshot{Alerts: []Alert{{Rule: "a", State: "inactive"}, {Rule: "b", State: "inactive"}}},
			"-- slo: all 2 alert rules inactive\n"},
	} {
		var b strings.Builder
		tc.snap.WriteSummary(&b)
		if b.String() != tc.want {
			t.Errorf("got %q, want %q", b.String(), tc.want)
		}
	}

	v := 0.125
	snap := AlertsSnapshot{
		Firing: 1, Pending: 1,
		Alerts: []Alert{
			{Rule: "drop-rate", State: "firing", StateCode: int(Firing), Value: &v, Detail: "12.5% dropped"},
			{Rule: "ingest-stale", State: "pending", StateCode: int(Pending)},
			{Rule: "wire-errors", State: "inactive", StateCode: int(Inactive)},
		},
		RecentResolved: []FiringEntry{{Rule: "model-degraded", FiringRecord: FiringRecord{
			StartedAt: 100, ResolvedAt: 130, PeakValue: 0.25, Detail: "psi over threshold"}}},
	}
	var b strings.Builder
	snap.WriteSummary(&b)
	want := "-- slo alerts (1 firing, 1 pending):\n" +
		"--   drop-rate            firing   value 0.125  12.5% dropped\n" +
		"--   ingest-stale         pending \n" +
		"--   resolved model-degraded fired 30s, peak 0.25  psi over threshold\n"
	if b.String() != want {
		t.Errorf("got\n%s\nwant\n%s", b.String(), want)
	}
}
