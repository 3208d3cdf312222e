package slo

import (
	"fmt"
	"math"
)

// Rule is one declarative health condition. Eval is called once per
// sampler tick with the shared History; it returns the rule's current
// value (for display and peak tracking), whether the condition is
// breached this tick, and a human-readable detail line.
//
// ForSec is the Prometheus-style `for` duration: the condition must
// hold continuously that long in Pending before the alert fires.
// ClearForSec is the symmetric resolve hysteresis: a firing alert must
// stay clear that long before it resolves, so a flapping condition
// holds one alert open instead of emitting a resolve/fire stream.
type Rule struct {
	Name        string
	Help        string
	ForSec      float64
	ClearForSec float64
	Eval        func(h *History, now float64) (value float64, breached bool, detail string)
}

// Objectives are the per-rule targets the built-in rules evaluate
// against. The zero value is completed by WithDefaults; a zero-valued
// field means "use the default", and rules whose objective is
// explicitly disabled (negative) are not installed.
type Objectives struct {
	// DropRateMax is the error-budget ratio for the ingest drop/shed
	// burn-rate pair: dropped / offered entries.
	DropRateMax float64
	// WireErrorRateMax is the budget for wire decode/CRC errors per
	// delivered frame.
	WireErrorRateMax float64
	// FastWindowSec / SlowWindowSec are the SRE-workbook multi-window
	// pair every burn-rate rule evaluates over (defaults 5m / 1h).
	FastWindowSec float64
	SlowWindowSec float64
	// BurnFactor is the burn-rate multiple both windows must exceed
	// to breach (default 2: budget consumed 2x faster than allowed).
	BurnFactor float64
	// MailboxUtilMax breaches when average mailbox depth / capacity
	// over the fast window exceeds it.
	MailboxUtilMax float64
	// LatencyP99MaxSec breaches when the ingest-stage p99 over
	// LatencyWindowSec exceeds it.
	LatencyP99MaxSec float64
	LatencyWindowSec float64
	// MOSFloor breaches when the worst cohort's p50 MOS sits below it.
	MOSFloor float64
	// FlightEvictPerSec breaches when flight-ring evictions per second
	// over the fast window exceed it (retention pressure: exemplars
	// are being pushed out faster than they can be read).
	FlightEvictPerSec float64
	// StaleAfterSec breaches the ingest-stale rule when the engine has
	// processed nothing for that long.
	StaleAfterSec float64
	// ForSec / ClearForSec default the per-rule hysteresis.
	ForSec      float64
	ClearForSec float64
}

// WithDefaults fills zero-valued objectives with production defaults.
func (o Objectives) WithDefaults() Objectives {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&o.DropRateMax, 0.01)
	def(&o.WireErrorRateMax, 0.001)
	def(&o.FastWindowSec, 300)
	def(&o.SlowWindowSec, 3600)
	def(&o.BurnFactor, 2)
	def(&o.MailboxUtilMax, 0.9)
	def(&o.LatencyP99MaxSec, 0.5)
	def(&o.LatencyWindowSec, 60)
	def(&o.MOSFloor, 2.0)
	def(&o.FlightEvictPerSec, 50)
	def(&o.StaleAfterSec, 120)
	def(&o.ForSec, 15)
	def(&o.ClearForSec, 15)
	return o
}

// BurnRateOver computes the error-budget burn multiple over one
// window: (errors_w / total_w) / objective. NaN when the window lacks
// samples; 0 when the window saw no traffic (an idle service is not
// burning budget — idleness is the freshness watchdog's job).
func (h *History) BurnRateOver(errs, total *Series, now, window, objective float64) float64 {
	de, _ := h.DeltaOver(errs, now, window)
	dt, _ := h.DeltaOver(total, now, window)
	if math.IsNaN(de) || math.IsNaN(dt) {
		return math.NaN()
	}
	if dt <= 0 {
		return 0
	}
	return (de / dt) / objective
}

// BurnRateRule builds a multi-window burn-rate rule in the SRE
// workbook's shape: breach only when BOTH the fast and the slow
// window burn the error budget faster than factor×. The fast window
// makes the alert responsive; the slow window stops a brief spike
// from paging; requiring both to clear before resolve means recovery
// is sustained, not a lull.
func BurnRateRule(name, help string, errs, total *Series, objective float64, o Objectives) Rule {
	return Rule{
		Name:        name,
		Help:        help,
		ForSec:      o.ForSec,
		ClearForSec: o.ClearForSec,
		Eval: func(h *History, now float64) (float64, bool, string) {
			fast := h.BurnRateOver(errs, total, now, o.FastWindowSec, objective)
			slow := h.BurnRateOver(errs, total, now, o.SlowWindowSec, objective)
			if math.IsNaN(fast) || math.IsNaN(slow) {
				return math.NaN(), false, "insufficient history"
			}
			breached := fast >= o.BurnFactor && slow >= o.BurnFactor
			detail := fmt.Sprintf("burn fast(%.0fs)=%.2fx slow(%.0fs)=%.2fx of %.4g budget (fire at %.3gx)",
				o.FastWindowSec, fast, o.SlowWindowSec, slow, objective, o.BurnFactor)
			return fast, breached, detail
		},
	}
}

// GaugeAboveRule breaches when the windowed average of a gauge exceeds
// limit.
func GaugeAboveRule(name, help string, s *Series, limit, windowSec float64, o Objectives) Rule {
	return Rule{
		Name:        name,
		Help:        help,
		ForSec:      o.ForSec,
		ClearForSec: o.ClearForSec,
		Eval: func(h *History, now float64) (float64, bool, string) {
			v := h.AvgOver(s, now, windowSec)
			if math.IsNaN(v) {
				return v, false, "no samples"
			}
			return v, v > limit, fmt.Sprintf("avg(%s) over %.0fs = %.4g (limit %.4g)", s.Name(), windowSec, v, limit)
		},
	}
}

// GaugeBelowRule breaches when the windowed average of a gauge sits
// below floor. Missing samples (NaN — e.g. no cohorts yet) do not
// breach.
func GaugeBelowRule(name, help string, s *Series, floor, windowSec float64, o Objectives) Rule {
	return Rule{
		Name:        name,
		Help:        help,
		ForSec:      o.ForSec,
		ClearForSec: o.ClearForSec,
		Eval: func(h *History, now float64) (float64, bool, string) {
			v := h.AvgOver(s, now, windowSec)
			if math.IsNaN(v) {
				return v, false, "no samples"
			}
			return v, v < floor, fmt.Sprintf("avg(%s) over %.0fs = %.4g (floor %.4g)", s.Name(), windowSec, v, floor)
		},
	}
}

// RateAboveRule breaches when a counter's per-second rate over the
// window exceeds limit.
func RateAboveRule(name, help string, s *Series, limit, windowSec float64, o Objectives) Rule {
	return Rule{
		Name:        name,
		Help:        help,
		ForSec:      o.ForSec,
		ClearForSec: o.ClearForSec,
		Eval: func(h *History, now float64) (float64, bool, string) {
			v := h.RateOver(s, now, windowSec)
			if math.IsNaN(v) {
				return v, false, "insufficient history"
			}
			return v, v > limit, fmt.Sprintf("rate(%s) over %.0fs = %.4g/s (limit %.4g/s)", s.Name(), windowSec, v, limit)
		},
	}
}

// QuantileAboveRule breaches when the windowed quantile of a histogram
// series exceeds limit seconds.
func QuantileAboveRule(name, help string, hs *HistSeries, q, limit, windowSec float64, o Objectives) Rule {
	return Rule{
		Name:        name,
		Help:        help,
		ForSec:      o.ForSec,
		ClearForSec: o.ClearForSec,
		Eval: func(h *History, now float64) (float64, bool, string) {
			v := h.QuantileOver(hs, q, now, windowSec)
			if math.IsNaN(v) {
				return v, false, "no observations in window"
			}
			return v, v > limit, fmt.Sprintf("p%.0f(%s) over %.0fs = %.4gs (limit %.4gs)", q*100, hs.Name(), windowSec, v, limit)
		},
	}
}

// StaleRule breaches when an age gauge (seconds since last activity,
// NaN while the source has never been active) exceeds maxAge. It fires
// on the *latest* sample, not a windowed average — staleness is
// already an integral.
func StaleRule(name, help string, age *Series, maxAge float64, o Objectives) Rule {
	return Rule{
		Name:        name,
		Help:        help,
		ForSec:      o.ForSec,
		ClearForSec: o.ClearForSec,
		Eval: func(h *History, now float64) (float64, bool, string) {
			v := h.Last(age)
			if math.IsNaN(v) {
				return v, false, "source not yet active"
			}
			return v, v > maxAge, fmt.Sprintf("%s = %.0fs since last activity (limit %.0fs)", age.Name(), v, maxAge)
		},
	}
}
