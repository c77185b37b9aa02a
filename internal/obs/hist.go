package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry. Values are bucketed log-linearly: exact below
// 2^histSubBits, then histSubBuckets sub-buckets per power of two, so the
// relative error of any reconstructed value is bounded by
// 1/histSubBuckets (~3% at 32 sub-buckets) while the whole int64 range
// fits in histBuckets counters. The index math is two shifts, a mask, and
// a bits.Len64 — no branches on the bucket table, no floats.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits
	// histBuckets covers every value up to 2^63-1: one linear segment of
	// histSubBuckets exact buckets plus 64-histSubBits octaves of
	// histSubBuckets sub-buckets each (top-bit positions histSubBits..63).
	histBuckets = (64 - histSubBits + 1) << histSubBits
)

// Histogram is an atomic log-bucketed value distribution: concurrent
// Record calls from any number of goroutines, no locks, fixed memory
// (histBuckets counters). It replaces the scalar timer sums of obs v1:
// alongside count/sum/max it answers quantile queries (p50/p90/p99) with
// bounded relative error, which is what latency reporting actually needs —
// a mean hides the tail, the tail is the regression.
//
// The zero value is ready to use.
//
// There is deliberately no separate sample counter: the total is the sum
// of the bucket counters, recomputed by the (cold) reporting paths, so the
// (hot) Record pays one atomic add fewer. The counters are typed atomics,
// so a plain read or write of one does not compile, and go vet rejects a
// copy of a Histogram.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// histBucketOf maps a non-negative value to its bucket index. Values below
// histSubBuckets map to themselves (exact); a larger value with top bit e
// lands in octave e-histSubBits+1 at the sub-bucket given by its
// histSubBits bits below the top bit. Indexes are monotone in v.
func histBucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	n := uint64(v)
	if n < histSubBuckets {
		return int(n)
	}
	e := bits.Len64(n) - 1 // position of the top set bit, >= histSubBits
	shift := uint(e - histSubBits)
	sub := (n >> shift) & (histSubBuckets - 1)
	return (e-histSubBits+1)<<histSubBits | int(sub)
}

// histBucketBounds returns the inclusive value range [lo, hi] of bucket i —
// the inverse of histBucketOf up to bucket resolution.
func histBucketBounds(i int) (lo, hi int64) {
	if i < histSubBuckets {
		return int64(i), int64(i)
	}
	g := uint(i >> histSubBits) // octave, >= 1
	sub := int64(i & (histSubBuckets - 1))
	lo = (histSubBuckets + sub) << (g - 1)
	hi = lo + (int64(1)<<(g-1) - 1)
	return lo, hi
}

// Record adds one sample. Negative samples clamp to zero (durations and
// sizes are non-negative by construction; a clock hiccup must not corrupt
// the bucket table).
//
//lint:hotpath
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded samples: the sum of the bucket
// counters. Each bucket only grows, so successive Count calls are
// monotone non-decreasing even mid-hammer.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// recorded samples: the upper edge of the bucket holding the q-th sample,
// clamped to the recorded max. Empty histograms return 0. The estimate is
// exact below 2^histSubBits and within one sub-bucket (~3%) above.
//
// Concurrent Record calls may be mid-flight during the scan; the result is
// a consistent-enough snapshot for reporting (bucket counts are summed
// once, monotonically).
func (h *Histogram) Quantile(q float64) int64 {
	// One snapshot of the bucket table serves both the total and the rank
	// scan, so a sample landing between the two passes cannot skew the
	// rank past the table.
	var counts [histBuckets]int64
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the sample the quantile lands on.
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			_, hi := histBucketBounds(i)
			if max := h.max.Load(); hi > max {
				hi = max
			}
			return hi
		}
	}
	return h.max.Load()
}

// Buckets calls fn for every non-empty bucket in increasing value order
// with the bucket's inclusive bounds and count. Used by the percentile
// tables and the monotonicity tests.
func (h *Histogram) Buckets(fn func(lo, hi, count int64)) {
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		lo, hi := histBucketBounds(i)
		fn(lo, hi, c)
	}
}
