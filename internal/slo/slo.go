package slo

import (
	"io"
	"sync"
	"time"
)

// Config configures an Engine. The zero value works: 1 Hz cadence,
// 4096-sample rings (covers the 1h slow burn window with slack),
// default objectives, wall clock, no alert log.
type Config struct {
	// CadenceSec is the sampler period in seconds (default 1).
	CadenceSec float64
	// Capacity is the per-series ring capacity in samples (default
	// 4096 — must cover Objectives.SlowWindowSec at the cadence).
	Capacity int
	// Objectives tune the built-in rules; see Objectives.
	Objectives Objectives
	// Now overrides the clock (unix seconds). Tests inject a fake
	// clock here; nil means time.Now.
	Now func() float64
	// AlertLog receives one JSON line per alert state transition.
	AlertLog io.Writer
	// Manual disables the background sampler goroutine; the owner
	// drives ticks explicitly via Tick. Tests use this for
	// deterministic time control.
	Manual bool
}

// WithDefaults fills zero fields with production defaults.
func (c Config) WithDefaults() Config {
	if c.CadenceSec <= 0 {
		c.CadenceSec = 1
	}
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	c.Objectives = c.Objectives.WithDefaults()
	if c.Now == nil {
		c.Now = func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	}
	return c
}

// Engine is the SLO engine: one History, one alert Manager, and an
// optional background sampler that ticks them at the configured
// cadence. Construction wires no sources or rules — glue code
// registers them via History()/AddRule before Start.
type Engine struct {
	cfg  Config
	hist *History
	mgr  *Manager

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds an Engine from cfg (completed with defaults).
func New(cfg Config) *Engine {
	cfg = cfg.WithDefaults()
	return &Engine{
		cfg:  cfg,
		hist: NewHistory(cfg.Capacity),
		mgr:  NewManager(cfg.AlertLog),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// History returns the engine's metric history for source registration
// and window queries.
func (e *Engine) History() *History { return e.hist }

// Objectives returns the completed objectives the built-in rules were
// configured with.
func (e *Engine) Objectives() Objectives { return e.cfg.Objectives }

// AddRule registers a rule with the alert manager.
func (e *Engine) AddRule(r Rule) {
	if r.ForSec == 0 {
		r.ForSec = e.cfg.Objectives.ForSec
	}
	if r.ClearForSec == 0 {
		r.ClearForSec = e.cfg.Objectives.ClearForSec
	}
	e.mgr.AddRule(r)
}

// Tick samples every series and evaluates every rule once, at time
// now. The background sampler calls this; tests with Manual drive it
// directly.
func (e *Engine) Tick(now float64) {
	e.hist.Sample(now)
	e.mgr.Evaluate(e.hist, now)
}

// Start launches the background sampler unless the config is Manual.
// Safe to call once; Close stops it.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		if e.cfg.Manual {
			close(e.done)
			return
		}
		go func() {
			defer close(e.done)
			t := time.NewTicker(time.Duration(e.cfg.CadenceSec * float64(time.Second)))
			defer t.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-t.C:
					e.Tick(e.cfg.Now())
				}
			}
		}()
	})
}

// Close stops the sampler and waits for it to exit. Idempotent; safe
// even if Start was never called (the sampler simply never ran).
func (e *Engine) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.startOnce.Do(func() { close(e.done) })
	<-e.done
}

// Now returns the engine's current clock reading.
func (e *Engine) Now() float64 { return e.cfg.Now() }

// Alerts returns the current alert table, worst-first.
func (e *Engine) Alerts() AlertsSnapshot { return e.mgr.Snapshot(e.cfg.Now()) }

// StateRows returns the per-rule exposition rows, sorted by rule.
func (e *Engine) StateRows() []StateRow { return e.mgr.StateRows() }

// Timeseries renders the newest maxPoints samples (0 = all retained)
// with per-sample histogram quantiles over the latency window.
func (e *Engine) Timeseries(maxPoints int) TimeseriesSnapshot {
	return e.hist.Snapshot(e.cfg.CadenceSec, maxPoints, e.cfg.Objectives.LatencyWindowSec)
}
