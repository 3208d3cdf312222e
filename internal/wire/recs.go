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
	// Settle resolves a frame's identities as the engine interns them,
	// through any door or connection, interning what is new: rec i's
	// subscriber subs[i] into recs[i].Sub and shardOf[i], its canonical
	// cohort key keys[i] (weblog.AppendCohortKey; nil for none) into
	// recs[i].Cohort. The byte slices are not retained.
	Settle(subs, keys [][]byte, recs []sessionizer.Rec, shardOf []uint32)
	// Find resolves label subscribers as the engine interned them,
	// without interning: subs[i] into refs[i], or the zero SubRef for a
	// subscriber it never carried. The byte slices are not retained.
	Find(subs [][]byte, refs []sessionizer.SubRef)
	// FeedRecs routes a frame's recs — recs[i] bound for shard
	// shardOf[i], both as Settle resolved them — with Feed's
	// backpressure, and calls done exactly once, from any goroutine,
	// when every shard has processed its share (at once if it takes
	// none). The slices are not retained.
	FeedRecs(recs []sessionizer.Rec, shardOf []uint32, done func())
}

// recDecoder is the rec emitter: the frame walk and record parser of
// Decoder, with entry records leaving as sessionizer.Recs. Every
// identity resolves through the engine's own indexes, a frame's all in
// one sink.Settle — the cohort keyed by the record's own region‖device‖cap
// bytes — so nothing a connection holds grows with the subscribers or
// cohorts it carries. The host is classified where it lies
// (weblog.ClassifyHostBytes); URI and server address are bounds-checked
// and skipped.
//
// A frame's identities are resolved only after its last record has
// validated, so a frame that fails asks the engine nothing. The
// returned slices are scratch, valid until the next DecodeFrame. Not
// safe for concurrent use.
type recDecoder struct {
	dec  Decoder
	sink RecSink

	recs    []sessionizer.Rec
	shardOf []uint32

	// every rec's subscriber and cohort key, aliasing the payload but for
	// a key sent with a length in more bytes than it needs, rebuilt in
	// keyBuf
	subs, keys [][]byte
	keyBuf     []byte

	// labelSubs[i] is the subscriber of dec.labels[i], resolved last so
	// a label sees the subscribers its own frame introduced
	labelSubs [][]byte
	labelRefs []sessionizer.SubRef
}

func newRecDecoder(sink RecSink) *recDecoder { return &recDecoder{sink: sink} }

// DecodeFrame is Decoder.DecodeFrame with the entries leaving as recs:
// recs[i] is bound for shard shardOf[i]. Label subscribers come back as
// the engine's own string when the engine knows the subscriber, so the
// steady state allocates nothing.
func (r *recDecoder) DecodeFrame(h Header, payload []byte) (recs []sessionizer.Rec, shardOf []uint32, labels []qualitymon.Label, err error) {
	r.recs, r.shardOf, r.subs, r.keys, r.keyBuf = r.recs[:0], r.shardOf[:0], r.subs[:0], r.keys[:0], r.keyBuf[:0]
	r.labelSubs = r.labelSubs[:0]
	if err := r.dec.decodeFrame(h, payload, r); err != nil {
		return nil, nil, nil, err
	}
	r.sink.Settle(r.subs, r.keys, r.recs, r.shardOf)
	r.labelRefs = slices.Grow(r.labelRefs[:0], len(r.labelSubs))[:len(r.labelSubs)]
	r.sink.Find(r.labelSubs, r.labelRefs)
	for i, sub := range r.labelSubs {
		if ref := r.labelRefs[i]; ref.ID != 0 {
			r.dec.labels[i].Subscriber = ref.Name
		} else {
			// a label for a subscriber the engine never carried: it gets
			// its own string and mints no engine ID
			r.dec.labels[i].Subscriber = string(sub)
		}
	}
	return r.recs, r.shardOf, r.dec.labels, nil
}

// emit appends one parsed entry record as a Rec whose identities wait
// for Settle, filled in place (DESIGN §13).
func (r *recDecoder) emit(e *rawEntry) {
	key := e.cohort
	if key != nil {
		key = weblog.CanonicalCohortKey(&r.keyBuf, key, e.region, e.device, e.cp)
	}
	r.subs, r.keys = append(r.subs, e.sub), append(r.keys, key)
	f := e.floats
	r.recs = append(r.recs, sessionizer.Rec{})
	rec := &r.recs[len(r.recs)-1]
	rec.Kind = weblog.ClassifyHostBytes(e.host)
	rec.Ts, rec.Dur, rec.KB = f64(f, 0), f64(f, 1), float64(int(e.size))/1000
	rec.RTTMin, rec.RTTAvg, rec.RTTMax, rec.BDP = f64(f, 2), f64(f, 3), f64(f, 4), f64(f, 5)
	rec.BIFAvg, rec.BIFMax, rec.Loss, rec.Retrans = f64(f, 6), f64(f, 7), f64(f, 8), f64(f, 9)
	r.shardOf = append(r.shardOf, 0)
}
