package obs

import (
	"math"
	"sync/atomic"
)

// Counters is a fixed-size vector of monotonically increasing counters.
// Inc/Add are lock-free, allocation-free, and safe for concurrent use;
// Snapshot may race with concurrent increments and then returns a
// slightly torn but per-cell valid view — the same trade-off Histogram
// makes. It is the accumulator the model-quality monitor keeps per
// engine shard (feature-bin occupancy, prediction classes, confidence
// bins), where single cells must be cheap enough for the ingest path.
type Counters struct {
	v []atomic.Int64
}

// CounterPad is the bytes NewCounters leaves unused on each side of a
// vector, and the padding a per-shard struct of cells ends with: two
// cache lines, the pair adjacent-line prefetch moves together, so cells
// two shards write never share a line.
const CounterPad = 128

// NewCounters allocates n zeroed counters, CounterPad bytes clear of
// any other allocation's.
func NewCounters(n int) *Counters {
	const pad = CounterPad / 8
	v := make([]atomic.Int64, n+2*pad)
	return &Counters{v: v[pad : pad+n : pad+n]}
}

// Len reports the vector size; 0 for nil.
func (c *Counters) Len() int {
	if c == nil {
		return 0
	}
	return len(c.v)
}

// Inc increments cell i.
func (c *Counters) Inc(i int) {
	if c == nil {
		return
	}
	c.v[i].Add(1)
}

// Get atomically reads cell i.
func (c *Counters) Get(i int) int64 {
	if c == nil {
		return 0
	}
	return c.v[i].Load()
}

// AddInto accumulates the current cell values into dst, which must be
// at least Len long — the cross-shard merge primitive.
func (c *Counters) AddInto(dst []int64) {
	if c == nil {
		return
	}
	for i := range c.v {
		dst[i] += c.v[i].Load()
	}
}

// FloatCell is an atomic float64 accumulator (CAS add, like
// Histogram's running sum). The zero value is ready to use.
type FloatCell struct {
	bits atomic.Uint64
}

// Add accumulates v.
func (c *FloatCell) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load reads the current value.
func (c *FloatCell) Load() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}
