package workload

import (
	"sync"
	"time"

	"helios/internal/graph"
	"helios/internal/obs"
)

// Sink consumes generated updates (a Helios cluster, a baseline database,
// or a test buffer).
type Sink func(graph.Update) error

// ReplayAll pushes the generator's whole stream into sink as fast as the
// sink accepts it and returns the number of updates delivered.
func ReplayAll(g *Generator, sink Sink) (int, error) {
	n := 0
	for {
		u, ok := g.Next()
		if !ok {
			return n, nil
		}
		if err := sink(u); err != nil {
			return n, err
		}
		n++
	}
}

// ReplayRate pushes updates at approximately ratePerSec until the stream
// ends, d elapses, or stop closes. It returns the delivered count. Rates
// are enforced in 1ms ticks to keep the replayer cheap at millions of
// updates per second.
func ReplayRate(g *Generator, sink Sink, ratePerSec float64, d time.Duration, stop <-chan struct{}) (int, error) {
	if ratePerSec <= 0 {
		return ReplayAll(g, sink)
	}
	deadline := time.Now().Add(d)
	n := 0
	carry := 0.0
	last := time.Now()
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for time.Now().Before(deadline) {
		select {
		case <-stop:
			return n, nil
		case <-ticker.C:
		}
		// Credit by elapsed wall time, not tick count: the ticker drops
		// ticks when the process is slow (race detector, loaded host),
		// and counting ticks would undershoot the requested rate. Backlog
		// is capped at one second's worth to bound the catch-up burst
		// after a long stall.
		now := time.Now()
		carry += now.Sub(last).Seconds() * ratePerSec
		last = now
		if carry > ratePerSec {
			carry = ratePerSec
		}
		for carry >= 1 {
			carry--
			u, ok := g.Next()
			if !ok {
				return n, nil
			}
			if err := sink(u); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// LoadStats reports a closed-loop load run.
type LoadStats struct {
	Requests int64
	Errors   int64
	Duration time.Duration
	QPS      float64
	Latency  obs.HistSnapshot
}

// RunClosedLoop drives fn from `concurrency` clients for d (the evaluation
// methodology of §7.2: "the number of clients sending inference requests
// concurrently"). Each client issues its next request immediately after the
// previous completes; per-request latency lands in the returned histogram.
func RunClosedLoop(concurrency int, d time.Duration, fn func(client int) error) LoadStats {
	var (
		hist    obs.Histogram
		reqs    obs.Counter
		errs    obs.Counter
		wg      sync.WaitGroup
		stopped = time.Now().Add(d)
	)
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for time.Now().Before(stopped) {
				t0 := time.Now()
				if err := fn(client); err != nil {
					errs.Inc()
				} else {
					hist.Observe(time.Since(t0).Nanoseconds(), 0)
					reqs.Inc()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := LoadStats{
		Requests: reqs.Value(),
		Errors:   errs.Value(),
		Duration: elapsed,
		Latency:  hist.Snapshot(),
	}
	if elapsed > 0 {
		st.QPS = float64(st.Requests) / elapsed.Seconds()
	}
	return st
}
