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
	// Find resolves a frame's subscribers as the engine interned them,
	// through any door or connection, lock-free and without interning:
	// subs[i] into refs[i], or the zero SubRef for a miss, which Intern
	// settles. The byte slices are not retained.
	Find(subs [][]byte, refs []sessionizer.SubRef)
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
// Decoder, with entry records leaving as sessionizer.Recs. Subscribers
// resolve through the engine's own index, a frame's all in one lock-free
// sink.Find, so nothing a connection holds grows with the subscribers it
// carries. A cohort resolves through a per-connection cache — a
// vocabulary of tens — keyed by the raw region‖device‖cap span (length
// prefixes included, so one lookup), bounded and dropped wholesale when
// full; it holds engine IDs, which is sound because the engine never
// reuses one. The host is classified where it lies
// (weblog.ClassifyHostBytes); URI and server address are bounds-checked
// and skipped.
//
// A frame's identities are resolved only after its last record has
// validated, its misses in one sink.Intern call, so a frame that fails
// asks the engine nothing and leaves the cohort cache as it was. The
// returned slices are scratch, valid until the next DecodeFrame. Not
// safe for concurrent use.
type recDecoder struct {
	dec   Decoder
	sink  RecSink
	bound int

	cohorts map[string]uint32

	recs    []sessionizer.Rec
	shardOf []uint32

	// every rec's subscriber (aliasing the payload) and Find's answer;
	// resolve moves the misses to the front of both for Intern, subAt[k]
	// the rec of miss k. The cohort cache's misses likewise.
	subName [][]byte
	subRefs []sessionizer.SubRef
	subAt   []int
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
	r.recs, r.shardOf, r.subName = r.recs[:0], r.shardOf[:0], r.subName[:0]
	r.cohAt, r.cohSpan, r.cohKey = r.cohAt[:0], r.cohSpan[:0], r.cohKey[:0]
	r.labelSubs = r.labelSubs[:0]
	if err := r.dec.decodeFrame(h, payload, r); err != nil {
		return nil, nil, nil, err
	}
	r.resolve()
	r.subRefs = slices.Grow(r.subRefs[:0], len(r.labelSubs))[:len(r.labelSubs)]
	r.sink.Find(r.labelSubs, r.subRefs)
	for i, sub := range r.labelSubs {
		if ref := r.subRefs[i]; ref.ID != 0 {
			r.dec.labels[i].Subscriber = ref.Name
		} else {
			// a label for a subscriber the engine never carried: it gets
			// its own string and mints no engine ID
			r.dec.labels[i].Subscriber = string(sub)
		}
	}
	return r.recs, r.shardOf, r.dec.labels, nil
}

// emit appends one parsed entry record as a Rec whose subscriber waits
// for resolve, and so does its cohort if the cache misses.
func (r *recDecoder) emit(e *rawEntry) {
	i := len(r.recs)
	r.subName = append(r.subName, e.sub)
	var coh uint32
	if e.cohort != nil {
		var ok bool
		if coh, ok = r.cohorts[string(e.cohort)]; !ok {
			r.cohAt = append(r.cohAt, i)
			r.cohSpan = append(r.cohSpan, e.cohort)
			r.cohKey = append(r.cohKey, [3][]byte{e.region, e.device, e.cp})
		}
	}
	f := e.floats
	r.recs = append(r.recs, sessionizer.Rec{
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
	r.shardOf = append(r.shardOf, 0)
}

// resolve has the engine settle the validated frame's identities — every
// subscriber in one Find, then what Find and the cohort cache missed in
// one Intern — patches the recs and fills the cohort cache. A subscriber
// the frame repeats is sent once per occurrence, which costs the engine
// a hit under the lock it already holds.
func (r *recDecoder) resolve() {
	r.subRefs = slices.Grow(r.subRefs[:0], len(r.recs))[:len(r.recs)]
	refs := r.subRefs
	r.sink.Find(r.subName, refs)
	r.subAt = r.subAt[:0]
	for i, ref := range refs {
		if ref.ID == 0 {
			r.subName[len(r.subAt)] = r.subName[i]
			r.subAt = append(r.subAt, i)
			continue
		}
		r.recs[i].Sub, r.shardOf[i] = ref.ID, ref.Shard
	}
	if len(r.subAt)+len(r.cohAt) == 0 {
		return
	}
	misses := refs[:len(r.subAt)]
	r.cohIDs = slices.Grow(r.cohIDs[:0], len(r.cohAt))[:len(r.cohAt)]
	r.sink.Intern(r.subName[:len(misses)], misses, r.cohKey, r.cohIDs)
	for k, i := range r.subAt {
		r.recs[i].Sub, r.shardOf[i] = misses[k].ID, misses[k].Shard
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
