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

func TestLimiterConcurrencyBound(t *testing.T) {
	l := NewLimiter(Config{Stage: "t", MaxInflight: 2, MaxQueue: -1})
	r1, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	// No queue: the third caller sheds immediately.
	if _, err := l.Acquire(time.Time{}); !IsOverload(err) {
		t.Fatalf("err = %v, want overload", err)
	}
	r1()
	r1() // double release must be a no-op
	if got := l.Inflight(); got != 1 {
		t.Fatalf("inflight after release = %d, want 1", got)
	}
	r3, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatalf("slot freed but acquire failed: %v", err)
	}
	r2()
	r3()
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

func TestLimiterQueueBoundAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1, MaxQueue: 1, Metrics: reg})
	release, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue; it is admitted once the slot frees.
	admitted := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := l.Acquire(time.Time{})
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
	if _, err := l.Acquire(time.Time{}); !IsOverload(err) {
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
	if _, err := l.Acquire(time.Now().Add(-time.Second)); !errors.Is(err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestLimiterDeadlineWhileQueued(t *testing.T) {
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1, MaxQueue: 4})
	release, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, err = l.Acquire(time.Now().Add(30 * time.Millisecond))
	if !errors.Is(err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("queued caller waited %v past its 30ms deadline", waited)
	}
}

func TestLimiterUntimedWaitIsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1, MaxQueue: 4, MaxWait: 20 * time.Millisecond, Metrics: reg})
	release, err := l.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := l.Acquire(time.Time{}); !IsOverload(err) {
		t.Fatalf("err = %v, want overload (wait_timeout)", err)
	}
	if c := reg.Counter("overload.shed", "stage", "t", "reason", "wait_timeout"); c.Value() != 1 {
		t.Fatalf("wait_timeout sheds = %d, want 1", c.Value())
	}
}

func TestLimiterBudgetShed(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(Config{Stage: "t", MaxInflight: 4, Headroom: 2, Metrics: reg})
	// Teach the estimator that requests take ~100ms.
	for i := 0; i < 32; i++ {
		l.Est.Observe(100 * time.Millisecond)
	}
	// 50ms of budget cannot cover 2×100ms: shed before doing work.
	if _, err := l.Acquire(time.Now().Add(50 * time.Millisecond)); !IsOverload(err) {
		t.Fatalf("err = %v, want overload (budget)", err)
	}
	if c := reg.Counter("overload.shed", "stage", "t", "reason", "budget"); c.Value() != 1 {
		t.Fatalf("budget sheds = %d, want 1", c.Value())
	}
	// A comfortable budget is admitted.
	release, err := l.Acquire(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	release()
}

func TestTryAcquire(t *testing.T) {
	l := NewLimiter(Config{Stage: "t", MaxInflight: 1})
	r1, ok := l.TryAcquire()
	if !ok {
		t.Fatal("empty limiter refused TryAcquire")
	}
	if _, ok := l.TryAcquire(); ok {
		t.Fatal("full limiter admitted TryAcquire")
	}
	r1()
	r2, ok := l.TryAcquire()
	if !ok {
		t.Fatal("freed limiter refused TryAcquire")
	}
	r2()
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

// The registry totals are sums over the per-instance counters, taken at
// scrape time: two limiters' sheds and a worker's degraded answers add up
// with no second counter anywhere.
func TestRegisterMetricsAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	for _, stage := range []string{"agg-a", "agg-b"} {
		l := NewLimiter(Config{Stage: stage, MaxInflight: 1, MaxQueue: -1, Metrics: reg})
		r, err := l.Acquire(time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Acquire(time.Time{}); !IsOverload(err) {
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
	reg.Counter("overload.degraded", "worker", "0").Add(3)
	snap := reg.Snapshot()
	if got := snap.Counters["overload.shed"]; got != 2 {
		t.Fatalf("overload.shed total = %d, want 2 (counters: %v)", got, snap.Counters)
	}
	if got := snap.Counters["overload.degraded"]; got != 3 {
		t.Fatalf("overload.degraded total = %d, want 3", got)
	}
}
