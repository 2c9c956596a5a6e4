package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a lock-cheap fixed-bucket histogram. Observations are
// classified into one of len(bounds)+1 buckets (the last bucket is the
// implicit +Inf overflow) with a binary search and two atomic adds, so
// concurrent evaluations — fan-out workers, the daemon's request
// handlers — may Observe without locks, the same discipline as the
// registry's counters.
//
// Bucket bounds are upper bounds in ascending order, cumulative-style:
// an observation v lands in the first bucket whose bound satisfies
// v <= bound. Quantile estimates interpolate linearly inside the
// winning bucket, like Prometheus's histogram_quantile.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit

	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// LatencyBuckets are the default bounds for query-latency histograms,
// in seconds: exponential-ish from 100µs to 10s, wide enough for both
// microbenchmark cells and DNF-scale outliers.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (which must be ascending; they are defensively copied and sorted).
func NewHistogram(name string, bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		name:   name,
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
	}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one observation. Nil-safe, like the counters.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// bucketOf returns the index of the first bucket whose upper bound
// admits v (the last index for the +Inf overflow bucket).
func (h *Histogram) bucketOf(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Counts returns a point-in-time copy of the per-bucket counts; the
// last entry is the +Inf overflow bucket.
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
