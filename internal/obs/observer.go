package obs

import "log/slog"

// Observer bundles one deployment's observability state: a StageSet
// and Tracer per engine shard plus the structured logger the
// instrumented code logs through. A nil *Observer disables all of it —
// every accessor returns nil and the nil-safe hot-path types take over
// from there — which is what the overhead benchmark's "off" arm and
// the default engine config use.
type Observer struct {
	stages  []*StageSet
	tracers []*Tracer
	logger  *slog.Logger

	traceCap int
}

// NewObserver sizes an observer for the given shard count; traceCap is
// the per-shard trace ring capacity (<= 0 for DefaultTraceCap).
func NewObserver(shards, traceCap int) *Observer {
	o := &Observer{traceCap: traceCap}
	o.EnsureShards(shards)
	return o
}

// EnsureShards grows the per-shard state to cover n shards. The engine
// calls it once before its workers start; it is not safe to call
// concurrently with Shard.
func (o *Observer) EnsureShards(n int) {
	if o == nil {
		return
	}
	for len(o.stages) < n {
		o.stages = append(o.stages, NewStageSet())
		o.tracers = append(o.tracers, NewTracer(o.traceCap))
	}
}

// SetLogger attaches the structured logger instrumented code should
// use (nil leaves logging off).
func (o *Observer) SetLogger(l *slog.Logger) {
	if o != nil {
		o.logger = l
	}
}

// Logger returns the attached logger, or nil.
func (o *Observer) Logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.logger
}

// Stages returns shard i's stage histograms (nil when out of range or
// the observer is nil, both of which mean "don't record").
func (o *Observer) Stages(i int) *StageSet {
	if o == nil || i < 0 || i >= len(o.stages) {
		return nil
	}
	return o.stages[i]
}

// Tracer returns shard i's lifecycle tracer (nil when out of range or
// the observer is nil).
func (o *Observer) Tracer(i int) *Tracer {
	if o == nil || i < 0 || i >= len(o.tracers) {
		return nil
	}
	return o.tracers[i]
}

// StageSnapshots copies every shard's stage histograms, indexed by
// shard.
func (o *Observer) StageSnapshots() []StageSetSnapshot {
	if o == nil {
		return nil
	}
	out := make([]StageSetSnapshot, len(o.stages))
	for i, s := range o.stages {
		out[i] = s.Snapshot()
	}
	return out
}

// TraceEvents merges every shard's ring into one time-ordered stream.
func (o *Observer) TraceEvents() []SpanEvent {
	if o == nil {
		return nil
	}
	return MergeEvents(o.tracers)
}
