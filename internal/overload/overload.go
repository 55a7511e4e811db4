// Package overload is Helios's admission-control layer: a concurrency
// limiter with a deadline-aware bounded wait queue, a windowed service-time
// estimate, and the typed errors that let every tier distinguish "shed by
// policy" from "deadline ran out".
//
// The paper's serving claim (§4) is that sampling/serving separation keeps
// ingestion bursts away from serving latency. This package is what enforces
// the serving half of that claim under load: instead of letting queues grow
// until every request is late, the frontend and serving workers admit at
// most a bounded amount of concurrent + queued work and shed the rest
// immediately. A shed request costs microseconds; an admitted-but-doomed
// request costs a worker for its full service time.
//
// Shedding decisions are deliberately cheap and local — a channel
// semaphore, an atomic waiter count, and an EWMA of observed service time.
// There is no global coordination: each stage protects itself, and the
// deadline budget carried in the RPC frame (see internal/rpc) is what links
// the stages into one end-to-end bound.
package overload

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"helios/internal/clock"
	"helios/internal/obs"
	"helios/internal/rpc"
)

// ErrOverloaded is the sentinel wrapped by every shed error. Callers use
// errors.Is(err, ErrOverloaded) (or IsOverload, which also recognises sheds
// that crossed an RPC hop) to tell backpressure apart from real failures:
// an overloaded replica is healthy, just full, and must not be failed over
// or retried into.
var ErrOverloaded = errors.New("overload: shed")

// ShedError reports which stage shed the request and why.
type ShedError struct {
	Stage  string // e.g. "frontend", "serving", "ingest"
	Reason string // e.g. "queue_full", "budget", "wait_timeout"
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overload: shed at %s (%s)", e.Stage, e.Reason)
}

func (e *ShedError) Unwrap() error { return ErrOverloaded }

// Shed builds a typed shed error for stage with the given reason.
func Shed(stage, reason string) error { return &ShedError{Stage: stage, Reason: reason} }

// IsOverload reports whether err is a shed, including sheds that crossed an
// RPC boundary and arrived as a RemoteError (the frame carries only the
// error string, so the remote form is recognised by its stable prefix).
func IsOverload(err error) bool {
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "overload: shed")
}

// IsDeadline reports whether err means the request's deadline budget ran
// out (locally, remotely, or on a single-attempt timeout).
func IsDeadline(err error) bool { return errors.Is(err, rpc.ErrDeadlineExceeded) }

// RegisterMetrics exposes the registry-wide overload totals on reg as sums
// taken at scrape time: overload.shed over every limiter's (and the ingest
// path's) overload.shed{stage,reason} counters, overload.degraded over the
// serving workers' overload.degraded{worker}.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("overload.shed", func() int64 { return reg.Sum("overload.shed") })
	reg.CounterFunc("overload.degraded", func() int64 { return reg.Sum("overload.degraded") })
}

// Estimator is a lock-free EWMA of observed service time (α = 1/8). The
// zero value is ready to use and reports no estimate until the first
// observation.
type Estimator struct {
	ewma atomic.Int64 // nanoseconds; 0 = no samples yet
}

// Observe folds one observed service duration into the estimate.
func (e *Estimator) Observe(d time.Duration) {
	v := d.Nanoseconds()
	if v < 1 {
		v = 1
	}
	for {
		old := e.ewma.Load()
		nw := v
		if old > 0 {
			nw = old + (v-old)/8
			if nw < 1 {
				nw = 1
			}
		}
		if e.ewma.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Estimate returns the current service-time estimate, or 0 before any
// observation.
func (e *Estimator) Estimate() time.Duration {
	return time.Duration(e.ewma.Load())
}

// Config sizes a Limiter.
type Config struct {
	// Stage names the protected tier ("frontend", "serving", ...); it
	// labels the metrics and the shed errors.
	Stage string
	// MaxInflight bounds concurrently admitted requests. <=0 means 256.
	MaxInflight int
	// MaxQueue bounds requests waiting for admission. 0 means
	// 4×MaxInflight; negative means no queue — when every slot is busy the
	// request is shed immediately (used for best-effort side paths like
	// degraded serving).
	MaxQueue int
	// MaxWait caps the queue wait for callers without a deadline, so an
	// untimed request can never park forever. <=0 means 1s.
	MaxWait time.Duration
	// Headroom multiplies the service-time estimate when deciding whether
	// a caller's remaining budget is worth admitting: remaining <
	// Headroom×estimate sheds. <=0 means 2.
	Headroom int
	// Clock supplies timestamps (deadline math and queue-wait measurement).
	// Nil means the wall clock.
	Clock clock.Clock
	// Metrics receives the limiter's stage-labeled shed counters and
	// queue-wait histogram. Nil means a private registry (metrics still
	// count, but nothing scrapes them).
	Metrics *obs.Registry
}

// Limiter is a concurrency limiter with a deadline-aware bounded wait
// queue. Admission order among waiters follows the runtime's channel FIFO.
type Limiter struct {
	stage    string
	clk      clock.Clock
	slots    chan struct{}
	maxQueue int64
	maxWait  time.Duration
	headroom time.Duration
	waiters  atomic.Int64

	// Est is the windowed service-time estimate fed by Release; exported
	// so a stage can seed or inspect it in tests.
	Est Estimator

	shedQueueFull *obs.Counter
	shedBudget    *obs.Counter
	shedWait      *obs.Counter
	queueWait     *obs.Histogram
}

// NewLimiter builds a limiter from cfg.
func NewLimiter(cfg Config) *Limiter {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = time.Second
	}
	if cfg.Headroom <= 0 {
		cfg.Headroom = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	reg, stage := cfg.Metrics, cfg.Stage
	return &Limiter{
		stage:         stage,
		clk:           cfg.Clock,
		slots:         make(chan struct{}, cfg.MaxInflight),
		maxQueue:      int64(cfg.MaxQueue),
		maxWait:       cfg.MaxWait,
		headroom:      time.Duration(cfg.Headroom),
		shedQueueFull: reg.Counter("overload.shed", "stage", stage, "reason", "queue_full"),
		shedBudget:    reg.Counter("overload.shed", "stage", stage, "reason", "budget"),
		shedWait:      reg.Counter("overload.shed", "stage", stage, "reason", "wait_timeout"),
		queueWait:     reg.Histogram("overload.queue_wait", "stage", stage),
	}
}

// Acquire admits the caller or sheds it. deadline is the request's absolute
// deadline (zero = none). On success it returns a release function that
// must be called exactly once when the request finishes; release also feeds
// the service-time estimate. Failure modes:
//
//   - rpc.ErrDeadlineExceeded: the deadline passed before admission (on
//     entry or while queued).
//   - ShedError{reason: "budget"}: the remaining budget cannot cover
//     Headroom × the observed service time, so doing the work would only
//     produce a late answer.
//   - ShedError{reason: "queue_full"}: the wait queue is at its bound.
//   - ShedError{reason: "wait_timeout"}: an untimed request waited MaxWait
//     without admission.
func (l *Limiter) Acquire(deadline time.Time) (func(), error) {
	now := l.clk.Now()
	if !deadline.IsZero() {
		if !now.Before(deadline) {
			return nil, rpc.ErrDeadlineExceeded
		}
		if est := l.Est.Estimate(); est > 0 && deadline.Sub(now) < l.headroom*est {
			l.shedBudget.Inc()
			return nil, Shed(l.stage, "budget")
		}
	}
	select {
	case l.slots <- struct{}{}:
		l.queueWait.Observe(0, 0)
		return l.admitted(now), nil
	default:
	}
	if l.waiters.Add(1) > l.maxQueue {
		l.waiters.Add(-1)
		l.shedQueueFull.Inc()
		return nil, Shed(l.stage, "queue_full")
	}
	defer l.waiters.Add(-1)
	wait := l.maxWait
	timed := false
	if !deadline.IsZero() {
		if r := deadline.Sub(now); r < wait {
			wait = r
			timed = true
		}
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case l.slots <- struct{}{}:
		admit := l.clk.Now()
		l.queueWait.Observe(admit.Sub(now).Nanoseconds(), 0)
		return l.admitted(admit), nil
	case <-t.C:
		if timed {
			// The budget burned up in the queue: a deadline error, so the
			// caller (and any upstream hop) knows not to retry.
			return nil, rpc.ErrDeadlineExceeded
		}
		l.shedWait.Inc()
		return nil, Shed(l.stage, "wait_timeout")
	}
}

// TryAcquire admits the caller only if a slot is immediately free; it never
// queues. Used for best-effort side paths (degraded serving).
func (l *Limiter) TryAcquire() (func(), bool) {
	select {
	case l.slots <- struct{}{}:
		return l.admitted(l.clk.Now()), true
	default:
		l.shedQueueFull.Inc()
		return nil, false
	}
}

// admitted returns the admission's one-shot release.
func (l *Limiter) admitted(start time.Time) func() {
	var done atomic.Bool
	return func() {
		if done.Swap(true) {
			return
		}
		l.Est.Observe(l.clk.Now().Sub(start))
		<-l.slots
	}
}

// Inflight reports currently admitted requests.
func (l *Limiter) Inflight() int64 { return int64(len(l.slots)) }

// Queued reports requests currently waiting for admission.
func (l *Limiter) Queued() int64 { return l.waiters.Load() }
