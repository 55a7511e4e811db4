package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{1, 2, 3, 15, 16, 17, 100, 1000, 1e6, 1e9, 1e12, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucket not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
	}
}

func TestBucketBoundsProperty(t *testing.T) {
	// Every sample's bucket upper bound must be ≥ the sample and within
	// ~12.5% relative error (two adjacent bucket widths).
	f := func(raw int64) bool {
		v := raw
		if v < 1 {
			v = -v
		}
		if v < 1 {
			v = 1
		}
		idx := bucketOf(v)
		upper := bucketUpper(idx)
		if upper < v {
			return false
		}
		return float64(upper-v) <= 0.13*float64(v)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// Uniform 1..10000: quantiles should approximate the rank statistics.
	for i := int64(1); i <= 10000; i++ {
		h.Observe(i, 0)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-5000.5) > 1 {
		t.Fatalf("mean = %f", m)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5000}, {0.9, 9000}, {0.99, 9900}} {
		got := float64(h.Quantile(tc.q))
		if got < tc.want*0.95 || got > tc.want*1.10 {
			t.Fatalf("q%.2f = %.0f, want ≈ %.0f", tc.q, got, tc.want)
		}
	}
	if h.Quantile(1.0) != 10000 {
		t.Fatalf("q1.0 = %d", h.Quantile(1.0))
	}
	if h.Max() != 10000 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestHistogramQuantileVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]int64, 50000)
	for i := range samples {
		// Log-normal-ish latencies.
		v := int64(math.Exp(rng.NormFloat64()*1.5+12)) + 1
		samples[i] = v
		h.Observe(v, 0)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		rel := math.Abs(float64(got-exact)) / float64(exact)
		if rel > 0.15 {
			t.Fatalf("q%.2f: got %d exact %d (%.1f%% off)", q, got, exact, rel*100)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(-5, 0) // clamps to 0
	h.Observe(0, 0)
	if h.Count() != 2 {
		t.Fatal("negative samples should still count")
	}
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range quantiles should clamp")
	}
}

func TestHistogramConcurrentUntraced(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				h.Observe(rng.Int63n(1e9), 0)
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestSnapshotString(t *testing.T) {
	var h Histogram
	h.Observe(2_000_000, 0) // 2ms
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatal("snapshot count")
	}
	if str := s.String(); str == "" {
		t.Fatal("snapshot should render")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(12345)
		for pb.Next() {
			h.Observe(v, 0)
			v += 999
		}
	})
}
