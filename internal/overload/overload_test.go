package overload

import (
	"errors"
	"sync"
	"testing"
	"time"

	"helios/internal/obs"
	"helios/internal/rpc"
)

func TestShedErrorClassification(t *testing.T) {
	err := Shed("frontend", "queue_full")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("shed error does not wrap ErrOverloaded")
	}
	if !IsOverload(err) {
		t.Fatal("IsOverload rejects a local shed")
	}
	// A shed that crossed an RPC hop arrives as a RemoteError string.
	remote := &rpc.RemoteError{Msg: "rpc: remote: " + err.Error()}
	if !IsOverload(remote) {
		t.Fatal("IsOverload rejects a remote shed")
	}
	if IsOverload(errors.New("boom")) || IsOverload(nil) {
		t.Fatal("IsOverload accepts a non-shed")
	}
	if !IsDeadline(rpc.ErrTimeout) || !IsDeadline(rpc.ErrDeadlineExceeded) {
		t.Fatal("IsDeadline rejects rpc deadline errors")
	}
	if IsDeadline(err) {
		t.Fatal("a shed is not a deadline error")
	}
}

// TestLimiterConcurrencyBound: a limiter admits as many callers as it has
// slots, each holding its own slot index, and a freed index is the one the
// next caller gets.
func TestLimiterConcurrencyBound(t *testing.T) {
	l := NewLimiter(Config{Stage: "t", MaxInflight: 2})
	l.maxWait = 10 * time.Millisecond
	s1, r1, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	s2, r2, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	if s1 == s2 || min(s1, s2) != 0 || max(s1, s2) != 1 {
		t.Fatalf("two admissions hold slots %d and %d, want 0 and 1", s1, s2)
	}
	// No free slot: the third caller waits out maxWait and sheds.
	if _, _, err := l.Acquire(time.Time{}); !IsOverload(err) {
		t.Fatalf("err = %v, want overload", err)
	}
	r1()
	r1() // double release must be a no-op
	if got := l.Inflight(); got != 1 {
		t.Fatalf("inflight after release = %d, want 1", got)
	}
	s3, r3, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatalf("slot freed but acquire failed: %v", err)
	}
	if s3 != s1 {
		t.Fatalf("admission after slot %d freed holds slot %d", s1, s3)
	}
	r2()
	r3()
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

func TestLimiterQueueBoundAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1, Metrics: reg})
	_, release, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue; it is admitted once the slot frees.
	admitted := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, r, err := l.Acquire(time.Time{})
		admitted <- err
		if err == nil {
			r()
		}
	}()
	// Wait until the waiter is parked so the next caller overflows.
	deadline := time.Now().Add(2 * time.Second)
	for l.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := l.Acquire(time.Time{}); !IsOverload(err) {
		t.Fatalf("overflow err = %v, want overload", err)
	}
	release()
	wg.Wait()
	if err := <-admitted; err != nil {
		t.Fatalf("queued caller failed: %v", err)
	}
	shed := reg.Counter("overload.shed", "stage", "t", "reason", "queue_full")
	if shed.Value() != 1 {
		t.Fatalf("queue_full sheds = %d, want 1", shed.Value())
	}
	if h := reg.Histogram("overload.queue_wait", "stage", "t"); h.Count() < 2 {
		t.Fatalf("queue_wait samples = %d, want >= 2", h.Count())
	}
}

func TestLimiterExpiredDeadline(t *testing.T) {
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1})
	if _, _, err := l.Acquire(time.Now().Add(-time.Second)); !errors.Is(err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestLimiterDeadlineWhileQueued(t *testing.T) {
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1})
	_, release, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, _, err = l.Acquire(time.Now().Add(30 * time.Millisecond))
	if !errors.Is(err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("queued caller waited %v past its 30ms deadline", waited)
	}
}

func TestLimiterUntimedWaitIsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1, Metrics: reg})
	l.maxWait = 20 * time.Millisecond
	_, release, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, _, err := l.Acquire(time.Time{}); !IsOverload(err) {
		t.Fatalf("err = %v, want overload (wait_timeout)", err)
	}
	if c := reg.Counter("overload.shed", "stage", "t", "reason", "wait_timeout"); c.Value() != 1 {
		t.Fatalf("wait_timeout sheds = %d, want 1", c.Value())
	}
}

func TestLimiterBudgetShed(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(Config{Stage: "t", MaxInflight: 4, Metrics: reg})
	// Teach the estimator that requests take ~100ms.
	for i := 0; i < 32; i++ {
		l.est.Observe(100 * time.Millisecond)
	}
	// A comfortable budget is admitted.
	_, busy, err := l.Acquire(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// With that in flight, 50ms of budget cannot cover 2×100ms: shed before
	// doing work.
	if _, _, err := l.Acquire(time.Now().Add(50 * time.Millisecond)); !IsOverload(err) {
		t.Fatalf("err = %v, want overload (budget)", err)
	}
	if c := reg.Counter("overload.shed", "stage", "t", "reason", "budget"); c.Value() != 1 {
		t.Fatalf("budget sheds = %d, want 1", c.Value())
	}
	// An idle limiter admits the same budget: the estimate is refreshed only
	// by admissions, so one inflated by an overload past must not shed every
	// request after it.
	busy()
	_, probe, err := l.Acquire(time.Now().Add(50 * time.Millisecond))
	if err != nil {
		t.Fatalf("idle limiter shed a request: %v", err)
	}
	probe()
}

func TestEstimatorEWMA(t *testing.T) {
	var e Estimator
	if e.Estimate() != 0 {
		t.Fatal("fresh estimator has an estimate")
	}
	e.Observe(80 * time.Millisecond)
	if got := e.Estimate(); got != 80*time.Millisecond {
		t.Fatalf("first observation = %v, want 80ms", got)
	}
	// Repeated larger observations pull the estimate upward monotonically.
	prev := e.Estimate()
	for i := 0; i < 64; i++ {
		e.Observe(160 * time.Millisecond)
		cur := e.Estimate()
		if cur < prev {
			t.Fatalf("estimate regressed: %v -> %v", prev, cur)
		}
		prev = cur
	}
	if prev < 150*time.Millisecond || prev > 160*time.Millisecond {
		t.Fatalf("estimate after convergence = %v, want ~160ms", prev)
	}
}

// The registry total is a sum over the per-instance counters, taken at
// scrape time: two limiters' sheds add up with no second counter anywhere.
func TestRegisterMetricsAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	for _, stage := range []string{"agg-a", "agg-b"} {
		l := NewLimiter(Config{Stage: stage, MaxInflight: 1, Metrics: reg})
		l.maxWait = 10 * time.Millisecond
		_, r, err := l.Acquire(time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Acquire(time.Time{}); !IsOverload(err) {
			t.Fatalf("err = %v, want overload", err)
		}
		if l.Inflight() != 1 {
			t.Fatalf("inflight = %d with one slot held", l.Inflight())
		}
		r()
		if l.Inflight() != 0 {
			t.Fatalf("inflight = %d after release", l.Inflight())
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["overload.shed"]; got != 2 {
		t.Fatalf("overload.shed total = %d, want 2 (counters: %v)", got, snap.Counters)
	}
}
