package serving

import (
	"slices"
	"sync"
	"testing"
	"time"

	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/rpc"
)

// The load of BenchmarkServeUnderShed: callers, each on its own Client, the
// budget of every call, and the measured windows.
const (
	shedCallers  = 16
	shedBudget   = 5 * time.Millisecond
	shedCapacity = 500 * time.Millisecond // closed-loop capacity probe
	shedWindow   = 2 * time.Second        // open-loop window
)

// BenchmarkServeUnderShed measures a worker past saturation. One worker with
// a [25,10] cache serves ServeRPC; 16 callers, each on its own Client, send
// one-seed batches open-loop at twice the capacity a closed-loop probe of
// the same callers measured on a default worker. Every call is timed from
// its due time, with what is left of a 5 ms budget: a late generator counts
// against its own side. It reports the offered rate (it moves with each
// run's probe), goodput (answers within the budget of their due time, per
// second), the p99 latency of the answered calls and the p99 of the
// generator's own lateness, at the default worker and at 2 serve threads.
// Each b.N iteration is one 2 s window:
//
//	go test ./internal/serving -run '^$' -bench ServeUnderShed -benchtime 1x
func BenchmarkServeUnderShed(b *testing.B) {
	seeds := make([]graph.VertexID, shedCallers)
	for i := range seeds {
		seeds[i] = graph.VertexID(i + 1)
	}
	var capacity float64
	shedWorker(b, seeds, Config{}, func(clients []*Client) {
		capacity = closedLoop(clients, seeds, shedCapacity)
	})
	b.Logf("closed-loop capacity: %.0f answers/s", capacity)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"defaults", Config{}}, {"serve2", Config{ServeThreads: 2}}} {
		b.Run(bc.name, func(b *testing.B) {
			shedWorker(b, seeds, bc.cfg, func(clients []*Client) {
				b.ResetTimer()
				for range b.N {
					goodput, p99, late := openLoop(clients, seeds, 2*capacity, shedWindow)
					b.ReportMetric(2*capacity, "offered/s")
					b.ReportMetric(goodput, "goodput/s")
					b.ReportMetric(float64(p99)/1e6, "p99_ms")
					b.ReportMetric(float64(late)/1e6, "late_p99_ms")
				}
			})
		})
	}
}

// shedWorker runs fn against a worker started from cfg with seeds' [25,10]
// answers cached, served over loopback RPC to shedCallers clients.
func shedWorker(b *testing.B, seeds []graph.VertexID, cfg Config, fn func([]*Client)) {
	bk := mq.NewBroker(mq.Options{})
	defer bk.Close()
	plan := ledgerPlan(b)
	cfg.NumServers, cfg.Plans, cfg.Broker = 1, []*query.Plan{plan}, bk
	w, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fillLedger(w, plan, seeds...)
	w.Start()
	defer w.Stop()
	srv := rpc.NewServer()
	ServeRPC(w, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	clients := make([]*Client, shedCallers)
	for i := range clients {
		if clients[i], err = DialServing(addr, time.Second); err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}
	fn(clients)
}

// call sends a batch of one for seed under budget (0 = the client's
// timeout) and reports whether an answer came back.
func call(cl *Client, seed graph.VertexID, budget time.Duration) bool {
	out, err := cl.SampleBatch([]BatchItem{{Seed: seed}}, budget)
	return err == nil && out[0].Err == nil
}

// closedLoop drives every client back to back for d and returns answers per
// second.
func closedLoop(clients []*Client, seeds []graph.VertexID, d time.Duration) float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	answers := 0
	end := time.Now().Add(d)
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for time.Now().Before(end) {
				if call(cl, seeds[i], 0) {
					n++
				}
			}
			mu.Lock()
			answers += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(answers) / d.Seconds()
}

// openLoop sends rate calls per second for d, spread evenly over the
// clients: call k is due at k/rate after the start whether or not earlier
// calls have come back. A call leaves with what is left of shedBudget at its
// due time, and one already past it is a miss that is not sent. It returns
// the answers that arrived within shedBudget of their due time, per second,
// the p99 of every answer's latency from its due time, and the p99 of how
// late the calls left (the generator's own lag on a busy host).
func openLoop(clients []*Client, seeds []graph.VertexID, rate float64, d time.Duration) (goodput float64, p99, lateP99 time.Duration) {
	var mu sync.Mutex
	var lats, lates []time.Duration
	var calls, callers sync.WaitGroup
	total := int(rate * d.Seconds())
	start := time.Now()
	for i, cl := range clients {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for k := i; k < total; k += len(clients) {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				calls.Add(1)
				go func() {
					defer calls.Done()
					late := time.Since(due)
					ok := late < shedBudget && call(cl, seeds[i], shedBudget-late)
					lat := time.Since(due)
					mu.Lock()
					lates = append(lates, late)
					if ok {
						lats = append(lats, lat)
					}
					mu.Unlock()
				}()
			}
		}()
	}
	callers.Wait()
	calls.Wait()
	good := 0
	for _, l := range lats {
		if l <= shedBudget {
			good++
		}
	}
	return float64(good) / d.Seconds(), quantile99(lats), quantile99(lates)
}

func quantile99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[len(ds)*99/100]
}
