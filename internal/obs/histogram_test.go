package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram("h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	// v <= bound places the observation: 0.05 and 0.1 in bucket 0 (le
	// 0.1), 0.5 in bucket 1, 5 in bucket 2, 100 in the +Inf overflow.
	want := []int64{2, 1, 1, 1}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if diff := math.Abs(h.Sum() - 105.65); diff > 1e-9 {
		t.Errorf("Sum = %g, want 105.65", h.Sum())
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 6 {
		t.Errorf("Count after ObserveDuration = %d, want 6", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("h", []float64{1, 2, 4})
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
	// 10 observations uniform in (0,1]: quantiles interpolate within
	// the first bucket.
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i) / 10)
	}
	if q := h.Quantile(0.5); math.Abs(q-0.5) > 1e-9 {
		t.Errorf("p50 = %g, want 0.5", q)
	}
	if q := h.Quantile(1); math.Abs(q-1) > 1e-9 {
		t.Errorf("p100 = %g, want 1", q)
	}
	// An observation past every bound clamps to the largest finite
	// bound rather than inventing a value.
	h.Observe(100)
	if q := h.Quantile(0.999); q != 4 {
		t.Errorf("overflow quantile = %g, want clamp to 4", q)
	}
	// Out-of-range q is clamped, not an error.
	if q := h.Quantile(-1); q < 0 {
		t.Errorf("q=-1 gave %g", q)
	}
	if q := h.Quantile(2); q != 4 {
		t.Errorf("q=2 gave %g, want 4", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram("h", LatencyBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("Count = %d, want %d", h.Count(), workers*per)
	}
	var total int64
	for _, c := range h.Counts() {
		total += c
	}
	if total != workers*per {
		t.Errorf("bucket total = %d, want %d", total, workers*per)
	}
	// Sum is CAS-accumulated; 2000 observations each of 0.001, 0.002,
	// 0.003 plus 2000 zeros.
	want := float64(per*2) * (0.001 + 0.002 + 0.003)
	if diff := math.Abs(h.Sum() - want); diff > 1e-6 {
		t.Errorf("Sum = %g, want %g", h.Sum(), want)
	}
}

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram accessors should read zero")
	}
	if h.Name() != "" || h.Bounds() != nil || h.Counts() != nil {
		t.Error("nil histogram metadata should be empty")
	}
}

func TestRegistryHistogramRegistration(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat", []float64{1, 2})
	h2 := r.Histogram("lat", nil) // later bounds ignored
	if h1 != h2 {
		t.Error("Histogram should return the first-registered instance")
	}
	r.Observe("lat", 1.5)
	if h1.Count() != 1 {
		t.Errorf("Observe did not reach the registered histogram: count=%d", h1.Count())
	}
	r.Observe("other", 0.01)
	hs := r.Histograms()
	if len(hs) != 2 || hs[0].Name() != "lat" || hs[1].Name() != "other" {
		names := make([]string, len(hs))
		for i, h := range hs {
			names[i] = h.Name()
		}
		t.Errorf("Histograms() = %v, want [lat other]", names)
	}
}
