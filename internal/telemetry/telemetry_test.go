package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestQuantileWithinBucketFactor checks the histogram's error claim: a
// quantile is reported as its bucket's geometric midpoint, so on samples
// of at least 1µs it lies within a factor √1.25 (≈12%) of the exact order
// statistic.
func TestQuantileWithinBucketFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	const n = 20000
	var h Histogram
	samples := make([]time.Duration, n)
	for i := range samples {
		// Log-uniform over [1µs, 10s].
		samples[i] = time.Duration(histBaseNs * math.Exp(rng.Float64()*math.Log(1e7)))
		h.Observe(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	bound := math.Sqrt(histGrowth)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := float64(samples[int(math.Ceil(q*n))-1])
		got := h.Quantile(q)
		if r := got / exact; r > bound || r < 1/bound {
			t.Errorf("q=%g: quantile %.0fns vs exact %.0fns, ratio %.4f outside [1/%.4f, %.4f]", q, got, exact, r, bound, bound)
		}
	}
	s := h.Summary()
	if s.Count != n || s.MaxMs != float64(samples[n-1])/1e6 {
		t.Fatalf("summary count %d max %gms, want %d and %gms", s.Count, s.MaxMs, n, float64(samples[n-1])/1e6)
	}
}

// TestEmptyHistogram: with no samples every quantile and the whole
// summary are zero.
func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%g) = %g on an empty histogram", q, got)
		}
	}
	if s := h.Summary(); s != (LatencySummary{}) {
		t.Fatalf("empty summary %+v", s)
	}
}

// TestConcurrentObserve hammers one histogram from several goroutines
// (run under -race): the count is exact, the buckets sum to it and the
// maximum is the largest sample.
func TestConcurrentObserve(t *testing.T) {
	const goroutines, per = 8, 2000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != goroutines*per {
		t.Fatalf("count %d, want %d", s.Count, goroutines*per)
	}
	var buckets int64
	for i := range h.counts {
		buckets += h.counts[i].Load()
	}
	if buckets != goroutines*per {
		t.Fatalf("buckets sum to %d, want %d", buckets, goroutines*per)
	}
	if want := float64(goroutines*per) * 1e-3; s.MaxMs != want {
		t.Fatalf("max %gms, want %gms", s.MaxMs, want)
	}
}
