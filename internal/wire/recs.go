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
	// Find resolves a subscriber the engine has interned, through any
	// door or connection, lock-free and without interning it; a miss is
	// settled by Intern. sub is not retained.
	Find(sub []byte) (sessionizer.SubRef, bool)
	// Intern resolves the identities a frame missed, all under one lock:
	// subscriber name subs[i] into refs[i], and the region/device/cap
	// triple cohorts[i] into ids[i] (0 for the all-empty triple). The
	// byte slices are not retained.
	Intern(subs [][]byte, refs []sessionizer.SubRef, cohorts [][3][]byte, ids []uint32)
	// FeedRecs routes a frame's recs — recs[i] bound for shard
	// shardOf[i], both as Intern resolved them — with Feed's
	// backpressure, and calls done exactly once, from any goroutine,
	// when every shard has processed its share (at once if it takes
	// none). The slices are not retained.
	FeedRecs(recs []sessionizer.Rec, shardOf []uint32, done func())
}

// recDecoder is the rec emitter: the frame walk and record parser of
// Decoder, with entry records leaving as sessionizer.Recs. A subscriber
// resolves through the engine's own index (sink.Find, lock-free), so
// nothing a connection holds grows with the subscribers it carries. A
// cohort resolves through a per-connection cache — a vocabulary of tens —
// keyed by the raw region‖device‖cap span (length prefixes included, so
// one lookup), bounded and dropped wholesale when full; it holds engine
// IDs, which is sound because the engine never reuses one. The host is
// classified where it lies (weblog.ClassifyHostBytes); URI and server
// address are bounds-checked and skipped.
//
// A frame's misses are interned only after its last record has
// validated, in one sink.Intern call, so a frame that fails leaves the
// engine and the cohort cache as they were. The returned slices are
// scratch, valid until the next DecodeFrame. Not safe for concurrent
// use.
type recDecoder struct {
	dec   Decoder
	sink  RecSink
	bound int

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

// newRecDecoder returns a rec emitter over sink whose cohort cache holds
// at most bound keys (internMax on the listener; tests lower it).
func newRecDecoder(sink RecSink, bound int) *recDecoder {
	return &recDecoder{sink: sink, bound: bound, cohorts: make(map[string]uint32)}
}

// DecodeFrame is Decoder.DecodeFrame with the entries leaving as recs:
// recs[i] is bound for shard shardOf[i]. Label subscribers come back as
// the engine's own string when the engine knows the subscriber, so the
// steady state allocates nothing.
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
		if ref, ok := r.sink.Find(sub); ok {
			r.dec.labels[i].Subscriber = ref.Name
		} else {
			// a label for a subscriber the engine never carried: it gets
			// its own string and mints no engine ID
			r.dec.labels[i].Subscriber = string(sub)
		}
	}
	return r.recs, r.shardOf, r.dec.labels, nil
}

// emit appends one parsed entry record as a Rec. A miss leaves the
// identity zero and queues it for internMisses.
func (r *recDecoder) emit(e *rawEntry) {
	i := len(r.recs)
	ref, ok := r.sink.Find(e.sub)
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
// one call, patches the recs that waited on them and fills the cohort
// cache. A subscriber the frame repeats is sent once per occurrence,
// which costs the engine a hit under the lock it already holds.
func (r *recDecoder) internMisses() {
	r.subRefs = slices.Grow(r.subRefs[:0], len(r.subAt))[:len(r.subAt)]
	r.cohIDs = slices.Grow(r.cohIDs[:0], len(r.cohAt))[:len(r.cohAt)]
	r.sink.Intern(r.subName, r.subRefs, r.cohKey, r.cohIDs)
	for k, i := range r.subAt {
		r.recs[i].Sub, r.shardOf[i] = r.subRefs[k].ID, r.subRefs[k].Shard
	}
	for k, i := range r.cohAt {
		r.recs[i].Cohort = r.cohIDs[k]
		if _, ok := r.cohorts[string(r.cohSpan[k])]; !ok {
			if len(r.cohorts) >= r.bound {
				clear(r.cohorts) // full: start over
			}
			r.cohorts[string(r.cohSpan[k])] = r.cohIDs[k]
		}
	}
}
