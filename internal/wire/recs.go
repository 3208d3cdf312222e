package wire

import (
	"slices"

	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// RecSink is the engine as the fused door needs it: a listener whose
// Handler.Recs is set decodes each frame straight into routed
// sessionizer.Recs and never builds a weblog.Entry. *engine.Engine
// implements it.
type RecSink interface {
	// Intern resolves identities a connection has not seen before, all
	// of a frame's under one lock: subscriber name subs[i] into refs[i],
	// and the region/device/cap triple cohorts[i] into ids[i] (0 for the
	// all-empty triple). The byte slices are not retained.
	Intern(subs [][]byte, refs []sessionizer.SubRef, cohorts [][3][]byte, ids []uint32)
	// FeedRecs routes a frame's recs — recs[i] bound for shard
	// shardOf[i], both as Intern resolved them — with Feed's
	// backpressure, and calls done exactly once, from any goroutine,
	// when every shard has processed its share (at once if it takes
	// none). The slices are not retained.
	FeedRecs(recs []sessionizer.Rec, shardOf []uint32, done func())
}

// recDecoder is the rec emitter: the frame walk and record parser of
// Decoder, with entry records leaving as sessionizer.Recs. Identities
// resolve through two per-connection caches keyed by wire content, each
// bounded on its own and dropped wholesale when full: subscriber → the
// engine's {name, id, shard}, and the raw region‖device‖cap span
// (length prefixes included, so one lookup) → cohort ID. The caches
// hold engine IDs, which is sound because the engine never reuses one.
// The host is classified where it lies (weblog.ClassifyHostBytes); URI
// and server address are bounds-checked and skipped.
//
// A frame's misses are interned only after its last record has
// validated, in one sink.Intern call, so a frame that fails leaves the
// engine and the ID caches as they were. The returned slices are
// scratch, valid until the next DecodeFrame. Not safe for concurrent
// use.
type recDecoder struct {
	dec   Decoder
	sink  RecSink
	bound int

	subs    map[string]sessionizer.SubRef
	cohorts map[string]uint32

	recs    []sessionizer.Rec
	shardOf []uint32

	// the frame's misses: the rec each belongs to, the bytes to intern
	// (aliasing the payload), and Intern's answers
	subAt   []int
	subName [][]byte
	subRefs []sessionizer.SubRef
	cohAt   []int
	cohSpan [][]byte
	cohKey  [][3][]byte
	cohIDs  []uint32

	// labelSubs[i] is the subscriber of dec.labels[i], resolved last so
	// a label sees the subscribers its own frame introduced
	labelSubs [][]byte
}

// newRecDecoder returns a rec emitter over sink whose caches hold at
// most bound keys each (internMax on the listener; tests lower it).
func newRecDecoder(sink RecSink, bound int) *recDecoder {
	return &recDecoder{
		sink:    sink,
		bound:   bound,
		subs:    make(map[string]sessionizer.SubRef),
		cohorts: make(map[string]uint32),
	}
}

// put inserts into a bounded cache, starting it over when full.
func put[V any](m *map[string]V, bound int, k string, v V) {
	if len(*m) >= bound {
		*m = make(map[string]V)
	}
	(*m)[k] = v
}

// DecodeFrame is Decoder.DecodeFrame with the entries leaving as recs:
// recs[i] is bound for shard shardOf[i]. Label subscribers come back as
// the engine's own string when the connection has carried the
// subscriber, so the steady state allocates nothing.
func (r *recDecoder) DecodeFrame(h Header, payload []byte) (recs []sessionizer.Rec, shardOf []uint32, labels []qualitymon.Label, err error) {
	r.recs, r.shardOf = r.recs[:0], r.shardOf[:0]
	r.subAt, r.subName = r.subAt[:0], r.subName[:0]
	r.cohAt, r.cohSpan, r.cohKey = r.cohAt[:0], r.cohSpan[:0], r.cohKey[:0]
	r.labelSubs = r.labelSubs[:0]
	if err := r.dec.decodeFrame(h, payload, r); err != nil {
		return nil, nil, nil, err
	}
	if len(r.subAt)+len(r.cohAt) > 0 {
		r.internMisses()
	}
	for i, sub := range r.labelSubs {
		if ref, ok := r.subs[string(sub)]; ok {
			r.dec.labels[i].Subscriber = ref.Name
		} else {
			// a label for a subscriber this connection never carried:
			// it gets its own string and mints no engine ID
			r.dec.labels[i].Subscriber = string(sub)
		}
	}
	return r.recs, r.shardOf, r.dec.labels, nil
}

// emit appends one parsed entry record as a Rec. A cache miss leaves
// the identity zero and queues it for internMisses.
func (r *recDecoder) emit(e *rawEntry) {
	i := len(r.recs)
	ref, ok := r.subs[string(e.sub)]
	if !ok {
		r.subAt = append(r.subAt, i)
		r.subName = append(r.subName, e.sub)
	}
	var coh uint32
	if e.cohort != nil {
		if coh, ok = r.cohorts[string(e.cohort)]; !ok {
			r.cohAt = append(r.cohAt, i)
			r.cohSpan = append(r.cohSpan, e.cohort)
			r.cohKey = append(r.cohKey, [3][]byte{e.region, e.device, e.cp})
		}
	}
	f := e.floats
	r.recs = append(r.recs, sessionizer.Rec{
		Sub:     ref.ID,
		Cohort:  coh,
		Kind:    weblog.ClassifyHostBytes(e.host),
		Ts:      f64(f, 0),
		Dur:     f64(f, 1),
		KB:      float64(int(e.size)) / 1000,
		RTTMin:  f64(f, 2),
		RTTAvg:  f64(f, 3),
		RTTMax:  f64(f, 4),
		BDP:     f64(f, 5),
		BIFAvg:  f64(f, 6),
		BIFMax:  f64(f, 7),
		Loss:    f64(f, 8),
		Retrans: f64(f, 9),
	})
	r.shardOf = append(r.shardOf, ref.Shard)
}

// internMisses has the engine resolve the validated frame's misses in
// one call, patches the recs that waited on them and fills the caches.
// A subscriber the frame repeats is sent once per occurrence, which
// costs the engine a map hit under the lock it already holds.
func (r *recDecoder) internMisses() {
	r.subRefs = slices.Grow(r.subRefs[:0], len(r.subAt))[:len(r.subAt)]
	r.cohIDs = slices.Grow(r.cohIDs[:0], len(r.cohAt))[:len(r.cohAt)]
	r.sink.Intern(r.subName, r.subRefs, r.cohKey, r.cohIDs)
	for k, i := range r.subAt {
		ref := r.subRefs[k]
		r.recs[i].Sub, r.shardOf[i] = ref.ID, ref.Shard
		// keyed by the engine's string: the cache allocates no key
		put(&r.subs, r.bound, ref.Name, ref)
	}
	for k, i := range r.cohAt {
		r.recs[i].Cohort = r.cohIDs[k]
		if _, ok := r.cohorts[string(r.cohSpan[k])]; !ok {
			put(&r.cohorts, r.bound, string(r.cohSpan[k]), r.cohIDs[k])
		}
	}
}
