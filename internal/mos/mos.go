// Package mos maps the three impairments the framework detects onto a
// Mean Opinion Score estimate, following the subjective-study results
// the paper builds its problem statement on (§2.2): Hoßfeld et al.'s
// crowdsourced YouTube stalling model [8], the resolution-quality
// correlation of Lewcio et al. [10], and the switching amplitude and
// frequency effects of Hoßfeld et al. [11].
//
// The paper itself stops at detecting impairment levels; this package
// is the natural downstream consumer an operator would attach — it
// turns a detection report into a user-facing score on the classic
// 1 (bad) … 5 (excellent) ACR scale.
package mos

import (
	"math"
	"sort"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/player"
)

// Score is a Mean Opinion Score on the 1–5 ACR scale.
type Score float64

// Verbal returns the standard ACR category of the score.
func (s Score) Verbal() string {
	switch {
	case s >= 4.5:
		return "excellent"
	case s >= 3.5:
		return "good"
	case s >= 2.5:
		return "fair"
	case s >= 1.5:
		return "poor"
	default:
		return "bad"
	}
}

// clampScore bounds a raw estimate to the ACR scale.
func clampScore(v float64) Score {
	if v < 1 {
		return 1
	}
	if v > 5 {
		return 5
	}
	return Score(v)
}

// StallMOS is Hoßfeld et al.'s exponential stalling model for YouTube
// ([8], eq. for MOS under N stalls of mean duration T seconds):
//
//	MOS = 3.5·exp(−(0.15·T + 0.19)·N) + 1.5
//
// Two 3-second stalls already push a session below "fair", the
// observation the paper's labelling thresholds encode.
func StallMOS(stallCount int, meanStallSec float64) Score {
	if stallCount <= 0 {
		return 5
	}
	v := 3.5*math.Exp(-(0.15*meanStallSec+0.19)*float64(stallCount)) + 1.5
	return clampScore(v)
}

// QualityMOS maps the session's average vertical resolution onto a
// score with a logarithmic response (each quality doubling is worth
// roughly the same opinion step, saturating at HD — consistent with
// the subjective results of [10] that higher representations improve
// QoE with diminishing returns).
func QualityMOS(avgResolution float64) Score {
	if avgResolution <= 0 {
		return 1
	}
	// 144p ≈ 2.0, 360p ≈ 3.3, 480p ≈ 3.7, 720p ≈ 4.3, 1080p ≈ 4.9
	v := 2.0 + 1.0*math.Log2(avgResolution/144)
	return clampScore(v)
}

// SwitchMOS penalizes representation variation by amplitude and
// frequency; the amplitude dominates, per [11]. freq is the number of
// switches, amp the mean absolute resolution change per switch.
func SwitchMOS(freq int, amp float64) Score {
	if freq <= 0 {
		return 5
	}
	ampSteps := amp / 240 // ≈ ladder steps
	v := 5 - 0.9*ampSteps - 0.25*math.Min(float64(freq), 8)
	return clampScore(v)
}

// Session combines the three components. Stalling dominates the
// experience (a stalled session cannot be good no matter the picture),
// so the combination is the stall score capped by the mean of the
// quality and switching scores.
func Session(stall, quality, sw Score) Score {
	other := (float64(quality) + float64(sw)) / 2
	v := math.Min(float64(stall), other+1.0)
	if float64(stall) < v {
		v = float64(stall)
	}
	// weighted blend keeps some influence of picture quality even for
	// smooth sessions
	v = 0.7*v + 0.3*math.Min(float64(stall), other)
	return clampScore(v)
}

// FromTrace scores a session from its ground truth — the upper bound
// an instrumented client could compute.
func FromTrace(tr *player.SessionTrace) Score {
	mean := 0.0
	if n := tr.StallCount(); n > 0 {
		mean = tr.TotalStallSeconds() / float64(n)
	}
	stall := StallMOS(tr.StallCount(), mean)
	quality := QualityMOS(tr.AverageQuality())
	sw := SwitchMOS(tr.SwitchFrequency(), tr.SwitchAmplitude())
	return Session(stall, quality, sw)
}

// NumScores is how many scores FromReport can return: one per
// combination of the three stall classes (§4.1), the three
// representation classes (§4.2) and the switch-variance flag (§4.3).
const NumScores = 18

// slot maps a report to its index in [0, NumScores):
// (stall·3 + representation)·2 + switch, each label by its value. A
// stall label out of range counts as a severe stall and a
// representation label out of range as LD, the levels it scores as, so
// every report has a slot.
func slot(r core.Report) int {
	st, rep := features.SevereStall, features.LD
	if r.Stall == features.NoStall || r.Stall == features.MildStall {
		st = r.Stall
	}
	if r.Representation == features.SD || r.Representation == features.HD {
		rep = r.Representation
	}
	i := (int(st)*3 + int(rep)) * 2
	if r.SwitchVariance {
		i++
	}
	return i
}

// scores is FromReport's table, by slot: detected levels mapped to
// representative impairment magnitudes. byScore lists the slots in
// ascending score order.
var scores, byScore = func() (t [NumScores]Score, order [NumScores]int) {
	stall := [3]Score{
		5,              // no stall
		StallMOS(1, 4), // one moderate rebuffering event
		StallMOS(3, 6), // repeated long stalls
	}
	quality := [3]Score{QualityMOS(240), QualityMOS(420), QualityMOS(720)} // LD, SD, HD
	sw := [2]Score{5, SwitchMOS(3, 240)}
	for i := range t {
		t[i] = Session(stall[i/6], quality[i/2%3], sw[i%2])
		order[i] = i
	}
	sort.Slice(order[:], func(a, b int) bool { return t[order[a]] < t[order[b]] })
	return t, order
}()

// FromReport scores a session from the framework's detection report —
// what the operator actually has for encrypted traffic.
func FromReport(r core.Report) Score { return scores[slot(r)] }

// Tally is the exact distribution of FromReport scores over a set of
// sessions: one count per slot. The tally of a union is the sum of the
// parts' tallies, so stripes and evicted cohorts merge without loss.
type Tally [NumScores]int64

// Observe counts one session and returns its score.
func (t *Tally) Observe(r core.Report) Score {
	i := slot(r)
	t[i]++
	return scores[i]
}

// Add folds o's sessions into t.
func (t *Tally) Add(o *Tally) {
	for i, n := range o {
		t[i] += n
	}
}

// Count is the number of sessions tallied.
func (t *Tally) Count() (n int64) {
	for _, c := range t {
		n += c
	}
	return n
}

// Mean is the mean score, 0 for an empty tally.
func (t *Tally) Mean() float64 {
	var sum float64
	for i, c := range t {
		sum += float64(c) * float64(scores[i])
	}
	if n := t.Count(); n > 0 {
		return sum / float64(n)
	}
	return 0
}

// Impaired counts the tallied sessions with a detected stall, with LD
// representation and with switch variance.
func (t *Tally) Impaired() (stalled, lowQuality, switching int64) {
	for i, c := range t {
		if i/6 != int(features.NoStall) {
			stalled += c
		}
		if i/2%3 == int(features.LD) {
			lowQuality += c
		}
		if i%2 == 1 {
			switching += c
		}
	}
	return stalled, lowQuality, switching
}

// Percentile returns the p-th percentile (p in [0,100]) of the tallied
// scores by stats.Summary.Percentile's rule, linear interpolation
// between closest ranks: bit for bit what that returns over the sorted
// sample the tally counts. It returns 0 for an empty tally.
func (t *Tally) Percentile(p float64) float64 {
	n := t.Count()
	if n == 0 {
		return 0
	}
	rank := math.Min(math.Max(p, 0), 100) / 100 * float64(n-1)
	lo, hi := math.Floor(rank), math.Ceil(rank)
	if lo == hi {
		return t.at(int64(lo))
	}
	frac := rank - lo
	return t.at(int64(lo))*(1-frac) + t.at(int64(hi))*frac
}

// at returns the k-th smallest tallied score (0-based).
func (t *Tally) at(k int64) float64 {
	for _, i := range byScore {
		if k -= t[i]; k < 0 {
			return float64(scores[i])
		}
	}
	return float64(scores[byScore[NumScores-1]])
}
