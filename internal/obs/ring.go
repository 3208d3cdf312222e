package obs

import "sync"

// Ring is a fixed-capacity mutex-guarded ring buffer: Push overwrites
// the oldest element once full and never allocates, so a hot path can
// record into it at a bounded, constant cost. The lifecycle Tracer is
// built on it.
// A nil *Ring is the "off" mode: every method is a no-op.
type Ring[T any] struct {
	mu  sync.Mutex
	buf []T
	seq uint64 // total elements ever pushed
}

// NewRing returns a ring holding the last capacity elements (capacity
// is clamped to at least 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, overwriting the oldest element when full, and
// returns the monotonic sequence number assigned to it.
func (r *Ring[T]) Push(v T) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	seq := r.seq
	r.buf[seq%uint64(len(r.buf))] = v
	r.seq++
	r.mu.Unlock()
	return seq
}

// Len reports how many elements the ring currently holds.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < uint64(len(r.buf)) {
		return int(r.seq)
	}
	return len(r.buf)
}

// Cap reports the ring capacity.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total reports how many elements were ever pushed (Total - Len of
// them have been overwritten).
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Snapshot copies the retained elements, oldest first.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.seq < n {
		out := make([]T, r.seq)
		copy(out, r.buf[:r.seq])
		return out
	}
	out := make([]T, n)
	head := r.seq % n // oldest slot
	copy(out, r.buf[head:])
	copy(out[n-head:], r.buf[:head])
	return out
}
