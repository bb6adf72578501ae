package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a log-bucketed histogram of non-negative int64 observations,
// safe for concurrent use: values land in exponentially growing buckets
// (factor 2), so p50/p95/p99 extraction costs one pass over 32 counters
// instead of retaining samples the way Summary does. This is what the
// cluster runtime records every round trip, ping and probe into — bounded
// memory under production traffic, where Summary's sample slice is not.
//
// The unit is fixed at creation and read only by String and the exposition
// writer: a duration histogram (the zero value; Registry.Histogram) takes
// nanoseconds, buckets from 1µs and is exposed in seconds; a value
// histogram (Registry.ValueHistogram) takes counts — the gateway's batch
// sizes — and buckets from 1.
type Histogram struct {
	raw bool // unitless counts rather than nanoseconds
	sum atomic.Int64
	// buckets[i] counts observations <= bound(i) and above bound(i-1); the
	// last element is the +Inf overflow. There is no separate count: the
	// count is the bucket sum, so every figure derived from one load()
	// agrees with every other.
	buckets [histBuckets + 1]atomic.Int64
}

// histBuckets finite log-2 buckets: the last bound is 1µs·2^30 ≈ 18 minutes
// for durations, 2^30 for values.
const histBuckets = 31

// bound returns the inclusive upper bound of finite bucket i.
func (h *Histogram) bound(i int) int64 {
	if h.raw {
		return 1 << uint(i)
	}
	return int64(time.Microsecond) << uint(i)
}

// Observe records one value: int64(d) for a time.Duration d on a duration
// histogram, the count itself on a value histogram. Negatives clamp to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	for i < histBuckets && v > h.bound(i) {
		i++
	}
	h.sum.Add(v)
	h.buckets[i].Add(1)
}

// load copies the buckets once and totals them.
func (h *Histogram) load() (b [histBuckets + 1]int64, total int64) {
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	return b, total
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, total := h.load()
	return total
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observation, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns the q-th quantile (0 < q <= 1) estimated by linear
// interpolation inside the holding bucket — exact to within the bucket's
// factor-2 width, which is the precision a latency breakdown needs. With no
// samples it returns 0; observations beyond the last finite bucket report
// that bucket's bound. Convert with time.Duration(...) on a duration
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	b, total := h.load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := b[i]
		if c > 0 && cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(h.bound(i - 1))
			}
			hi := float64(h.bound(i))
			return lo + float64(rank-cum)/float64(c)*(hi-lo)
		}
		cum += c
	}
	return float64(h.bound(histBuckets - 1))
}

// String renders a one-line digest matching Summary's shape.
func (h *Histogram) String() string {
	n, mean := h.Count(), h.Mean()
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if h.raw {
		return fmt.Sprintf("n=%d mean=%.2f p50=%.1f p95=%.1f p99=%.1f", n, mean, p50, p95, p99)
	}
	us := func(ns float64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v", n, us(mean), us(p50), us(p95), us(p99))
}
