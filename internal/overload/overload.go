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
// Shedding decisions are deliberately cheap and local — a channel of free
// slot indices, an atomic waiter count, and an EWMA of observed service
// time.
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

// RegisterMetrics exposes the registry-wide shed total on reg: overload.shed,
// the sum at scrape time of every limiter's (and the ingest path's)
// overload.shed{stage,reason} counters.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("overload.shed", func() int64 { return reg.Sum("overload.shed") })
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
	// MaxInflight bounds concurrently admitted requests, and as many more
	// may wait for a slot. It must be at least 1.
	MaxInflight int
	// Clock supplies timestamps (deadline math and queue-wait measurement).
	// Nil means the wall clock.
	Clock clock.Clock
	// Metrics receives the limiter's stage-labeled shed counters and
	// queue-wait histogram. Nil means a private registry (metrics still
	// count, but nothing scrapes them).
	Metrics *obs.Registry
}

// maxWait caps the queue wait for callers without a deadline, so an
// untimed request can never park forever.
const maxWait = time.Second

// headroom multiplies the service-time estimate when deciding whether a
// caller's remaining budget is worth admitting: remaining < headroom ×
// estimate sheds.
const headroom = 2

// Limiter is a concurrency limiter with a deadline-aware wait queue as deep
// as its slots. Its slots are numbered: an admission holds one index in
// [0, Slots()), which no other admission holds until it is released, so a
// caller can key per-slot state on it (a serving worker's serve actor).
// Admission order among waiters follows the channel FIFO.
type Limiter struct {
	stage   string
	clk     clock.Clock
	free    chan int      // the slot indices not held
	maxWait time.Duration // the constant maxWait; this package's tests shorten it
	waiters atomic.Int64

	// est is the windowed service-time estimate fed by release.
	est Estimator

	shedQueueFull *obs.Counter
	shedBudget    *obs.Counter
	shedWait      *obs.Counter
	queueWait     *obs.Histogram
}

// NewLimiter builds a limiter from cfg.
func NewLimiter(cfg Config) *Limiter {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	reg, stage := cfg.Metrics, cfg.Stage
	free := make(chan int, cfg.MaxInflight)
	for i := range cfg.MaxInflight {
		free <- i
	}
	return &Limiter{
		stage:         stage,
		clk:           cfg.Clock,
		free:          free,
		maxWait:       maxWait,
		shedQueueFull: reg.Counter("overload.shed", "stage", stage, "reason", "queue_full"),
		shedBudget:    reg.Counter("overload.shed", "stage", stage, "reason", "budget"),
		shedWait:      reg.Counter("overload.shed", "stage", stage, "reason", "wait_timeout"),
		queueWait:     reg.Histogram("overload.queue_wait", "stage", stage),
	}
}

// Acquire admits the caller or sheds it. deadline is the request's absolute
// deadline (zero = none). On success it returns the slot index the caller
// holds and a release function that frees it, to be called once the
// request's work has finished (a second call is a no-op); release also
// feeds the service-time estimate. Failure modes:
//
//   - rpc.ErrDeadlineExceeded: the deadline passed before admission (on
//     entry or while queued).
//   - ShedError{reason: "budget"}: the remaining budget cannot cover
//     headroom × the observed service time, so doing the work would only
//     produce a late answer. Only while something is in flight: admissions
//     alone refresh the estimate, so one inflated by a past overload would
//     otherwise shed every request after it, for good.
//   - ShedError{reason: "queue_full"}: as many callers wait as there are slots.
//   - ShedError{reason: "wait_timeout"}: an untimed request waited maxWait
//     without admission.
func (l *Limiter) Acquire(deadline time.Time) (int, func(), error) {
	now := l.clk.Now()
	if !deadline.IsZero() {
		if !now.Before(deadline) {
			return 0, nil, rpc.ErrDeadlineExceeded
		}
		if est := l.est.Estimate(); est > 0 && l.Inflight() > 0 && deadline.Sub(now) < headroom*est {
			l.shedBudget.Inc()
			return 0, nil, Shed(l.stage, "budget")
		}
	}
	select {
	case slot := <-l.free:
		l.queueWait.Observe(0, 0)
		return slot, l.admitted(slot, now), nil
	default:
	}
	if l.waiters.Add(1) > int64(cap(l.free)) {
		l.waiters.Add(-1)
		l.shedQueueFull.Inc()
		return 0, nil, Shed(l.stage, "queue_full")
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
	case slot := <-l.free:
		admit := l.clk.Now()
		l.queueWait.Observe(admit.Sub(now).Nanoseconds(), 0)
		return slot, l.admitted(slot, admit), nil
	case <-t.C:
		if timed {
			// The budget burned up in the queue: a deadline error, so the
			// caller (and any upstream hop) knows not to retry.
			return 0, nil, rpc.ErrDeadlineExceeded
		}
		l.shedWait.Inc()
		return 0, nil, Shed(l.stage, "wait_timeout")
	}
}

// admitted returns the one-shot release of slot.
func (l *Limiter) admitted(slot int, start time.Time) func() {
	var done atomic.Bool
	return func() {
		if done.Swap(true) {
			return
		}
		l.est.Observe(l.clk.Now().Sub(start))
		l.free <- slot
	}
}

// Slots reports how many requests the limiter admits at once.
func (l *Limiter) Slots() int { return cap(l.free) }

// Inflight reports currently admitted requests.
func (l *Limiter) Inflight() int64 { return int64(cap(l.free) - len(l.free)) }

// Queued reports requests currently waiting for admission.
func (l *Limiter) Queued() int64 { return l.waiters.Load() }
