package wire

import (
	"slices"

	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
)

// RecSink is the engine as the fused door needs it: a listener whose
// Handler.Recs is set decodes each frame straight into routed
// sessionizer.Recs, written once, into storage the sink lends, and never
// builds a weblog.Entry. *engine.Engine implements it.
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
	// Batch lends the storage of one batch of at most n recs — recs[i]
	// bound for shard shardOf[i], both n long and dirty — for the decoder
	// to write and Settle to resolve in place, and feed, the one way to
	// hand it back: feed(k, done) routes the first k recs with Feed's
	// backpressure and calls done, when non-nil, exactly once, from any
	// goroutine, when every shard has processed its share (at once if it
	// takes none; feed(0, nil) returns a batch unused). Neither slice may
	// be touched after feed.
	Batch(n int) (recs []sessionizer.Rec, shardOf []uint32, feed func(k int, done func()))
}

// recDecoder is the rec emitter: the frame walk and record parser of
// Decoder, with entry records leaving as sessionizer.Recs, each written
// once, into a batch the sink lends (RecSink.Batch) at the frame's first
// entry. Every identity resolves through the engine's own indexes, a
// frame's all in one sink.Settle — the cohort keyed by the record's own
// region‖device‖cap bytes — so nothing a connection holds grows with the
// subscribers or cohorts it carries. The host is classified where it
// lies (weblog.ClassifyHostBytes); URI and server address are
// bounds-checked and skipped.
//
// A frame's identities are resolved only after its last record has
// validated, so a frame that fails asks the engine nothing, and its
// batch goes back unused. Not safe for concurrent use.
type recDecoder struct {
	dec  Decoder
	sink RecSink

	// the lent batch and its hand-back (nil between Feed and the next
	// frame's first entry); room is how many recs the frame can hold
	recs    []sessionizer.Rec
	shardOf []uint32
	feed    func(int, func())
	room    int

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
// recs[i] is bound for shard shardOf[i]. Both are the lent batch, valid
// until Feed hands it on or the next DecodeFrame returns it unused.
// Label subscribers come back as the engine's own string when the engine
// knows the subscriber, so the steady state allocates nothing.
func (r *recDecoder) DecodeFrame(h Header, payload []byte) (recs []sessionizer.Rec, shardOf []uint32, labels []qualitymon.Label, err error) {
	r.giveBack()
	r.room = min(h.Records, len(payload)/minEntryRecord)
	r.subs, r.keys, r.keyBuf = r.subs[:0], r.keys[:0], r.keyBuf[:0]
	r.labelSubs = r.labelSubs[:0]
	if err := r.dec.decodeFrame(h, payload, r); err != nil {
		r.giveBack()
		return nil, nil, nil, err
	}
	r.recs, r.shardOf = r.recs[:len(r.subs)], r.shardOf[:len(r.subs)]
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

// Feed hands the recs of the frame DecodeFrame last returned to the
// sink, done as RecSink.Batch describes; the frame must have had some.
func (r *recDecoder) Feed(done func()) {
	feed, n := r.feed, len(r.recs)
	r.recs, r.shardOf, r.feed = nil, nil, nil
	feed(n, done)
}

// giveBack returns a lent batch that no Feed took to the sink unused.
func (r *recDecoder) giveBack() {
	if r.feed != nil {
		r.feed(0, nil)
		r.recs, r.shardOf, r.feed = nil, nil, nil
	}
}

// emit writes one entry record parsed out of p into the batch's next
// rec, in place (DESIGN §13); its identities wait for Settle.
func (r *recDecoder) emit(p []byte, e *rawEntry) {
	if r.feed == nil {
		r.recs, r.shardOf, r.feed = r.sink.Batch(r.room)
	}
	var key []byte
	if e.flags&entryCohort != 0 {
		// the suffix is its canonical key when every length in it is one
		// byte, which its own length shows
		if key = e.cohort.of(p); len(key) != 3+e.parts[0].len()+e.parts[1].len()+e.parts[2].len() {
			key = weblog.CanonicalCohortKey(&r.keyBuf, key, e.parts[0].of(p), e.parts[1].of(p), e.parts[2].of(p))
		}
	}
	rec := &r.recs[len(r.subs)]
	r.subs, r.keys = append(r.subs, e.strs[strSub].of(p)), append(r.keys, key)
	f := e.floats
	rec.Kind = weblog.ClassifyHostBytes(e.strs[strHost].of(p))
	rec.Ts, rec.Dur, rec.KB = f64(f, 0), f64(f, 1), float64(int(e.size))/1000
	rec.RTTMin, rec.RTTAvg, rec.RTTMax, rec.BDP = f64(f, 2), f64(f, 3), f64(f, 4), f64(f, 5)
	rec.BIFAvg, rec.BIFMax, rec.Loss, rec.Retrans = f64(f, 6), f64(f, 7), f64(f, 8), f64(f, 9)
}
