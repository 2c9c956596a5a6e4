package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to count as resolved (the choosing-metrics rule).
const minBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of xs
// and the number of samples strictly beyond that rank. xs is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// geomean returns the geometric mean of xs, so that every class weighs the
// same whatever its magnitude; 0 for no samples or any non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencySlices is how many equal slices of the window a class's latency
// is estimated over.
const latencySlices = 10

// samples records the operations completed in a window: the class of
// each, its latency, and when in the window it started.
type samples struct {
	class []int32
	ms    []float64
	at    []float64 // seconds since the window opened
}

func (s *samples) add(class int, latency, since time.Duration) {
	s.class = append(s.class, int32(class))
	s.ms = append(s.ms, float64(latency)/1e6)
	s.at = append(s.at, since.Seconds())
}

func (s *samples) merge(o *samples) {
	s.class = append(s.class, o.class...)
	s.ms = append(s.ms, o.ms...)
	s.at = append(s.at, o.at...)
}

// classLatencies returns each class's typical latency: the median, over
// latencySlices equal slices of the window, of the class's mean latency
// within the slice. The plain per-operation median is not used because it
// is bimodal: an allocation-heavy query runs either beside a garbage
// collection cycle or not, the two modes are some 40 % apart, and which
// side of them the median falls on changed between identical runs. The
// mean within a slice spreads the collector's cost over the operations
// that caused it; the median across slices discards a slice another
// tenant of the machine disturbed. Classes without a sample are left out.
func (s *samples) classLatencies(classes int, windowSeconds float64) []float64 {
	sum := make([][latencySlices]float64, classes)
	n := make([][latencySlices]int, classes)
	for i, c := range s.class {
		k := int(s.at[i] / windowSeconds * latencySlices)
		if k >= latencySlices {
			k = latencySlices - 1
		}
		sum[c][k] += s.ms[i]
		n[c][k]++
	}
	var out []float64
	for c := range sum {
		var means []float64
		for k := range sum[c] {
			if n[c][k] > 0 {
				means = append(means, sum[c][k]/float64(n[c][k]))
			}
		}
		if len(means) > 0 {
			out = append(out, median(means))
		}
	}
	return out
}
