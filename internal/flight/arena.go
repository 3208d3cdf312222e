package flight

import (
	"vqoe/internal/core"
	"vqoe/internal/mos"
)

// fifo is a first-in-first-out store of T addressed by position: the
// n-th element ever written keeps position n while it lives (positions
// never wrap), so a session is named by its position and is alive iff
// that is at or past head. Fixed-length segments are cut on demand and a
// segment the head has left is reused before another is cut: a store
// whose live span has stopped growing stops allocating. DESIGN §12. The
// owning ShardRecorder's mutex guards it.
type fifo[T any] struct {
	segLen uint64
	segs   [][]T // segs[i] holds positions [base+i·segLen, base+(i+1)·segLen)
	spare  [][]T // segments the head has left
	base   uint64
	head   uint64 // oldest live position
	tail   uint64 // next position to be written
}

// Segment lengths: 64 KB of floats (some twenty 55-chunk sessions) and
// ≈52 KB of headers.
const (
	floatSegLen  = 8192
	headerSegLen = 256
)

// extend appends n elements, which the caller then writes, and returns
// the position of the first.
func (f *fifo[T]) extend(n int) uint64 {
	pos := f.tail
	f.tail += uint64(n)
	for f.base+uint64(len(f.segs))*f.segLen < f.tail {
		var seg []T
		if k := len(f.spare); k > 0 {
			seg, f.spare = f.spare[k-1], f.spare[:k-1]
		} else {
			seg = make([]T, f.segLen)
		}
		f.segs = append(f.segs, seg)
	}
	return pos
}

// release moves the head to position to and sets aside the segments
// that lie wholly before it.
func (f *fifo[T]) release(to uint64) {
	f.head = to
	for len(f.segs) > 0 && f.base+f.segLen <= f.head {
		f.spare = append(f.spare, f.segs[0])
		f.segs = f.segs[:copy(f.segs, f.segs[1:])]
		f.base += f.segLen
	}
}

func (f *fifo[T]) live() int { return int(f.tail - f.head) }

// run returns the elements from position pos to the end of its segment.
func (f *fifo[T]) run(pos uint64) []T {
	i := pos - f.base
	return f.segs[i/f.segLen][i%f.segLen:]
}

func (f *fifo[T]) at(pos uint64) *T { return &f.run(pos)[0] }

// read copies len(dst) elements out from position pos on, across
// segment seams.
func (f *fifo[T]) read(dst []T, pos uint64) {
	for len(dst) > 0 {
		n := copy(dst, f.run(pos))
		dst, pos = dst[n:], pos+uint64(n)
	}
}

// floatWriter fills extended space a float at a time from pos on — plain
// stores, and a look at the segment table only at a seam.
type floatWriter struct {
	f   *fifo[float64]
	run []float64
	pos uint64
}

func (w *floatWriter) put(v float64) {
	if len(w.run) == 0 {
		w.run = w.f.run(w.pos)
	}
	w.run[0] = v
	w.run = w.run[1:]
	w.pos++
}

// header is one retained session's fixed-width record: what the index
// serves, the verdict the timeline fold replays, and where the
// session's floats lie. Its two strings are owned elsewhere (the
// engine's interned subscriber, the interner's cohort label) and the
// class and verbal names are static, so retention builds none, and the
// header segments are all of a recorder the collector scans. Fixed at
// retention except reasons, models and bytes, which ObserveOutcome
// grows, and next, which a newer session of the same key sets.
type header struct {
	subscriber, cohort string
	start, end, mos    float64
	report             core.Report

	// whole-session totals, so truncation never skews the features event
	chunkCount        int // video chunks seen, kept or not
	totalKB, totalSec float64
	rawEntries        int // flow-buffer entries the session closed with

	// the session's floats start at off: kept chunk records (end
	// timestamp, transfer seconds, kilobytes), then the stall and the
	// representation detector's projected vectors
	off                uint64
	kept, nStall, nRep int

	reasons Reason
	models  uint8 // exemplarStall, exemplarRep: the models it is an exemplar of
	// next is the distance to the next newer live session of the same
	// subscriber and start (0: none), kept while the shard has an index
	next  uint32
	bytes int64 // accounted footprint, label events included
}

const chunkRecFloats = 3

func (h *header) floats() int      { return chunkRecFloats*h.kept + h.nStall + h.nRep }
func (h *header) truncated() int64 { return int64(h.chunkCount - h.kept) }
func (h *header) stall() string    { return h.report.Stall.String() }
func (h *header) rep() string      { return h.report.Representation.String() }
func (h *header) verbal() string   { return mos.Score(h.mos).Verbal() }

// Memory accounting: a conservative per-record overhead plus the
// variable-size payloads — a cap on resident footprint, not a heap
// audit. It is the formula the recorder charged when a session was a
// heap struct with its own chunk and vector slices (the three static
// names included), so a stream evicts at the same points it always did.
const (
	sessionOverheadBytes = 256
	eventOverheadBytes   = 64
	chunkRecBytes        = 8 * chunkRecFloats
)

func (h *header) accounted() int64 {
	return int64(sessionOverheadBytes +
		len(h.subscriber) + len(h.cohort) + len(h.stall()) + len(h.rep()) + len(h.verbal()) +
		8*(h.nStall+h.nRep) + chunkRecBytes*h.kept)
}

func eventBytes(ev *Event) int64 { return int64(eventOverheadBytes + len(ev.Note)) }

// push retains one session at the tail of the shard's stores: the
// header, then one float-only pass over the buffered chunk observations
// that compacts the first maxEvents of them and folds the whole-session
// totals, then both projected vectors. Nothing of a is referenced
// afterwards but its two strings. The caller holds s.mu.
func (s *ShardRecorder) push(a *Assessment, score float64, reasons Reason) *header {
	seq := s.hdrs.extend(1)
	h := s.hdrs.at(seq)
	*h = header{
		subscriber: a.Subscriber, cohort: a.Cohort,
		start: a.Start, end: a.End, mos: score, report: a.Report,
		chunkCount: len(a.Chunks), rawEntries: a.RawEntries,
		kept:   min(len(a.Chunks), s.rec.maxEvents),
		nStall: len(a.StallProj), nRep: len(a.RepProj),
		reasons: reasons,
	}
	h.off = s.floats.extend(h.floats())
	w := floatWriter{f: &s.floats, pos: h.off}
	kept, totalKB, totalSec := h.kept, 0.0, 0.0
	for i := range a.Chunks {
		c := &a.Chunks[i]
		totalKB += c.SizeKB
		totalSec += c.DurationSec
		if i < kept {
			w.put(c.Time)
			w.put(c.DurationSec)
			w.put(c.SizeKB)
		}
	}
	for _, v := range a.StallProj {
		w.put(v)
	}
	for _, v := range a.RepProj {
		w.put(v)
	}
	h.totalKB, h.totalSec = totalKB, totalSec
	h.bytes = h.accounted()
	s.bytes += h.bytes
	if s.index != nil {
		s.indexAdd(seq, h)
	}
	return h
}

// evictOldest drops the session at the head of both stores. The caller
// holds s.mu.
func (s *ShardRecorder) evictOldest() {
	seq := s.hdrs.head
	old := s.hdrs.at(seq)
	s.bytes -= old.bytes
	if old.reasons&ReasonLabeledWrong != 0 {
		delete(s.labels, seq)
	}
	if s.index != nil {
		s.indexRemove(seq, old)
	}
	s.floats.release(old.off + uint64(old.floats()))
	*old = header{} // the slot outlives the session; its strings need not
	s.hdrs.release(seq + 1)
}

// sessionKey is what a label or a drill-down names a session by.
type sessionKey struct {
	subscriber string
	start      float64
}

// keySeqs is one key's live sessions in a shard's index: the sequence
// numbers of the oldest and the newest; any between are chained
// through header.next.
type keySeqs struct{ first, last uint64 }

// indexAdd enters the session just pushed at seq, the shard's newest,
// after the newest one of its key. A NaN start equals no start, so no
// lookup can find such a session and it is left out. The caller holds
// s.mu.
func (s *ShardRecorder) indexAdd(seq uint64, h *header) {
	if h.start != h.start {
		return
	}
	k := sessionKey{h.subscriber, h.start}
	e, ok := s.index[k]
	if !ok {
		s.index[k] = keySeqs{seq, seq}
		return
	}
	s.hdrs.at(e.last).next = uint32(seq - e.last)
	s.index[k] = keySeqs{e.first, seq}
}

// indexRemove takes the shard's oldest session, at seq, out of the
// index; it is the oldest of its key too, so the next newer one of the
// key, if any, becomes the key's oldest. The caller holds s.mu.
func (s *ShardRecorder) indexRemove(seq uint64, h *header) {
	if h.start != h.start {
		return
	}
	k := sessionKey{h.subscriber, h.start}
	if h.next == 0 {
		delete(s.index, k)
		return
	}
	s.index[k] = keySeqs{seq + uint64(h.next), s.index[k].last}
}

// lookup finds the oldest retained session with this exact subscriber
// and start (−0 and +0 are one start, as == has it). The first lookup
// builds the shard's index from the live sessions, and retention keeps
// it from then on, so a recorder nothing asks by key keeps none. The
// caller holds s.mu.
func (s *ShardRecorder) lookup(subscriber string, start float64) (uint64, *header) {
	if s.index == nil {
		s.index = make(map[sessionKey]keySeqs, s.hdrs.live())
		for seq := s.hdrs.head; seq < s.hdrs.tail; seq++ {
			s.indexAdd(seq, s.hdrs.at(seq))
		}
	}
	e, ok := s.index[sessionKey{subscriber, start}]
	if !ok {
		return 0, nil
	}
	return e.first, s.hdrs.at(e.first)
}

// replay is one retained session copied out for a drill-down, under the
// ring lock because the shard reuses the space the moment the session
// is evicted; rendering then runs on the copy with no lock held.
type replay struct {
	header
	shard  int
	chunks []float64 // kept chunk records, chunkRecFloats each
	// the detectors' projected vectors, nil when the session carried none
	stallProj, repProj []float64
	labels             []Event
}

// copyOut takes the replay copy of the session at seq. The caller holds
// s.mu.
func (s *ShardRecorder) copyOut(seq uint64, h *header) *replay {
	r := &replay{header: *h, shard: s.shard}
	buf := make([]float64, h.floats())
	s.floats.read(buf, h.off)
	n := chunkRecFloats * h.kept
	r.chunks = buf[:n:n]
	if h.nStall > 0 {
		r.stallProj = buf[n : n+h.nStall : n+h.nStall]
	}
	if h.nRep > 0 {
		r.repProj = buf[n+h.nStall:]
	}
	if l := s.labels[seq]; len(l) > 0 {
		r.labels = append([]Event(nil), l...)
	}
	return r
}

// chunk returns kept chunk record i.
func (r *replay) chunk(i int) (ts, dur, kb float64) {
	c := r.chunks[chunkRecFloats*i:]
	return c[0], c[1], c[2]
}
