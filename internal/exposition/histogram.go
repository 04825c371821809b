package exposition

import "math/bits"

// Histogram is a fixed-boundary, allocation-free histogram over the
// non-negative integers — virtual-round and virtual-time measurements,
// which is everything the serving lane observes. Boundaries are powers of
// two: bucket i counts observations v with 2^(i-1) < v ≤ 2^i (bucket 0
// counts v ≤ 1), and one overflow bucket counts everything past the last
// finite boundary. Observing is two int64 adds and an increment into a
// preallocated array; no locks, no floats, no allocation — safe on the
// //pram:hotpath serving round. Rendering (histogram exposition with
// cumulative `le` buckets, `_sum`, `_count`) allocates freely and runs off
// the hot path through Registry/EmitHistogram.
//
// Because observations are integer adds into fixed buckets, a Histogram's
// entire state is a pure function of the observation multiset: two runs
// that observe the same values in any order carry bit-for-bit identical
// bucket contents — the property the serving determinism tests assert
// across K and worker counts.
type Histogram struct {
	counts []int64 // len = buckets+1; last slot is the +Inf overflow
	sum    int64
	total  int64
}

// NewHistogram builds a histogram with the given number of finite
// power-of-two buckets (upper boundaries 1, 2, 4, …, 2^(buckets-1)) plus
// the implicit +Inf overflow bucket. buckets is clamped to [1, 63] (the
// int64 boundary range).
func NewHistogram(buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	if buckets > 63 {
		buckets = 63
	}
	return &Histogram{counts: make([]int64, buckets+1)}
}

// Observe folds one observation into the histogram. Negative values clamp
// to zero (the serving lane's measurements are all non-negative; a clamp
// keeps a bug from corrupting the bucket index).
//
//pram:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	// Bucket index for upper boundary 2^i: v ≤ 1 → 0, else ceil(log2 v);
	// values past the last finite boundary land in the overflow slot.
	idx := 0
	if v > 1 {
		idx = bits.Len64(uint64(v - 1))
	}
	if idx >= len(h.counts)-1 {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.sum += v
	h.total++
}

// Count returns how many observations the histogram holds.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Buckets returns the number of finite buckets.
func (h *Histogram) Buckets() int { return len(h.counts) - 1 }

// BucketCount returns the raw (non-cumulative) count of bucket i; index
// Buckets() is the +Inf overflow bucket.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i] }

// Reset zeroes the histogram in place (no allocation).
func (h *Histogram) Reset() {
	clear(h.counts)
	h.sum = 0
	h.total = 0
}
