package obs

import (
	"math"
	"sync"
	"testing"
	"time"

	"helios/internal/clock"
)

func TestHistogramEmptyQuantiles(t *testing.T) {
	h := new(Histogram)
	if h.Count() != 0 {
		t.Fatalf("fresh histogram count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%g) = %d, want 0", q, v)
		}
	}
	if _, ok := h.ExemplarNear(0.99); ok {
		t.Fatal("empty histogram produced an exemplar")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P99 != 0 || s.P99Exemplar != "" || len(s.Exemplars) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := new(Histogram)
	h.Observe(1234, 0)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	// With one sample every quantile resolves to the same bucket bound.
	if s.P50 != s.P99 || s.P99 != s.P999 {
		t.Fatalf("single-sample quantiles diverge: p50=%d p99=%d p999=%d", s.P50, s.P99, s.P999)
	}
	if s.P50 < 1234 {
		t.Fatalf("quantile %d is not an upper bound on the sample 1234", s.P50)
	}
	if s.Max != 1234 {
		t.Fatalf("max = %d, want 1234", s.Max)
	}
	// Untraced observation leaves no exemplar behind.
	if _, ok := h.ExemplarNear(0.99); ok {
		t.Fatal("untraced observation produced an exemplar")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := new(Histogram)
	h.Observe(math.MaxInt64, 7)
	if h.Max() != math.MaxInt64 {
		t.Fatalf("max = %d", h.Max())
	}
	if v := h.Quantile(0.99); v != math.MaxInt64 {
		t.Fatalf("overflow-bucket quantile = %d, want MaxInt64 saturation", v)
	}
	ex, ok := h.ExemplarNear(0.99)
	if !ok {
		t.Fatal("overflow-bucket exemplar lost")
	}
	if ex.Trace != TraceHex(7) || ex.Value != math.MaxInt64 || ex.LE != math.MaxInt64 {
		t.Fatalf("overflow exemplar = %+v", ex)
	}
	// Negative samples clamp into the bottom bucket rather than panicking.
	h2 := new(Histogram)
	h2.Observe(-5, 9)
	if h2.Count() != 1 {
		t.Fatalf("negative sample dropped: count = %d", h2.Count())
	}
	if _, ok := h2.ExemplarNear(0.5); !ok {
		t.Fatal("negative sample left no exemplar")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	// Exercised with -race in `make race`: traced observations swap
	// exemplar cells while untraced ones hammer the base counters.
	h := new(Histogram).WithClock(clock.NewFake())
	h.AttachSLO(NewSLO("t", time.Millisecond, 0.99, time.Second))
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				trace := uint64(0)
				if i%2 == 0 {
					trace = uint64(g*per + i + 1)
				}
				h.Observe(int64(i%1000)*1000, trace)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	if _, ok := h.ExemplarNear(0.5); !ok {
		t.Fatal("no exemplar survived the concurrent run")
	}
}

func TestExemplarReplacementDeterministic(t *testing.T) {
	clk := clock.NewFake()
	h := new(Histogram).WithClock(clk)
	// Two traced samples landing in the same bucket: latest wins, with the
	// fake clock pinning the retained timestamp exactly.
	v := int64(5000)
	if bucketOf(v) != bucketOf(v+1) {
		t.Fatalf("test samples %d and %d must share a bucket", v, v+1)
	}
	h.Observe(v, 11)
	first := clk.Now().UnixNano()
	clk.Advance(time.Second)
	h.Observe(v+1, 22)
	second := clk.Now().UnixNano()
	if first == second {
		t.Fatal("fake clock did not advance")
	}
	ex, ok := h.ExemplarNear(0.5)
	if !ok {
		t.Fatal("no exemplar")
	}
	if ex.Trace != TraceHex(22) || ex.Value != v+1 || ex.TS != second {
		t.Fatalf("latest-wins exemplar = %+v, want trace %s value %d ts %d",
			ex, TraceHex(22), v+1, second)
	}
	// A traced sample in a different bucket must not disturb this one.
	h.Observe(v*1000, 33)
	if ex2, _ := h.ExemplarNear(0.5); ex2.Trace != TraceHex(22) {
		t.Fatalf("distant bucket displaced exemplar: %+v", ex2)
	}
}

func TestExemplarNearSearchesOutward(t *testing.T) {
	h := new(Histogram)
	// Push the p99 into a high bucket with untraced mass, then record the
	// only traced sample far below: ExemplarNear must still find it.
	for i := 0; i < 1000; i++ {
		h.Observe(1_000_000, 0)
	}
	h.Observe(100, 5)
	ex, ok := h.ExemplarNear(0.99)
	if !ok || ex.Trace != TraceHex(5) {
		t.Fatalf("outward search failed: %+v %v", ex, ok)
	}
}

// One histogram type must not mean an exemplar table on every histogram:
// the 8 KiB table exists only once a traced sample has been observed.
func TestExemplarTableAllocatedByFirstTrace(t *testing.T) {
	h := new(Histogram)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i*1000, 0)
	}
	if h.exemplars.Load() != nil {
		t.Fatal("untraced observations allocated the exemplar table")
	}
	if s := h.Snapshot(); s.Count != 1000 || len(s.Exemplars) != 0 || s.P99Exemplar != "" {
		t.Fatalf("untraced snapshot = %+v", s)
	}
	h.Observe(5000, 9)
	if h.exemplars.Load() == nil {
		t.Fatal("traced observation left no exemplar table")
	}
	if ex, ok := h.ExemplarNear(0.5); !ok || ex.Trace != TraceHex(9) {
		t.Fatalf("exemplar = %+v (ok=%v)", ex, ok)
	}
}
