package frontend_test

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/overload"
	"helios/internal/query"
	"helios/internal/serving"
)

// TestChaosBurstOverload slows the serving path with an injected delay and
// fires a request storm with a small end-to-end budget at the frontend. The
// overload contract under the burst: every failure is a typed shed or
// deadline error (nothing hangs, nothing leaks an untyped error), latency
// stays bounded by the budget rather than the queue depth, and once the
// burst drains the admission queues and goroutine count return to their
// pre-storm baseline.
func TestChaosBurstOverload(t *testing.T) {
	// Tiny admission capacity so the storm saturates serving.
	var o cluster.Options
	o.Server.Worker = serving.Config{ServeThreads: 1}
	c, cfg, fe := boot(t, testConfig, o)
	// Sheds are counted where they are decided — the frontend's limiter or
	// a serving worker's; each role keeps its own registry here, as separate
	// processes do.
	total := func(series string) int64 {
		sum := fe.Metrics().Sum(series)
		for _, w := range c.Servers {
			sum += w.Config().Metrics.Sum(series)
		}
		return sum
	}

	// Seed the pipeline and wait until the cache can answer for seed 1.
	userT, _ := cfg.Schema.VertexTypeID("User")
	itemT, _ := cfg.Schema.VertexTypeID("Item")
	clickT, _ := cfg.Schema.EdgeTypeID("Click")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fe.Ingest(graph.NewVertexUpdate(graph.Vertex{ID: 1, Type: userT, Feature: []float32{1}})))
	must(fe.Ingest(graph.NewVertexUpdate(graph.Vertex{ID: 100, Type: itemT, Feature: []float32{2}})))
	must(fe.Ingest(graph.NewEdgeUpdate(graph.Edge{Src: 1, Dst: 100, Type: clickT, Ts: 10})))
	converge := time.Now().Add(30 * time.Second)
	for {
		res, err := fe.Sample(query.ID(0), 1)
		if err == nil && len(res.Layers) >= 2 && len(res.Layers[1]) > 0 {
			break
		}
		if time.Now().After(converge) {
			t.Fatalf("pipeline never converged: %+v (err %v)", res, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	const budget = 400 * time.Millisecond
	fe.SetOverload(deploy.OverloadFile{RequestTimeoutMS: int(budget / time.Millisecond), MaxInflight: 8})

	baseline := runtime.NumGoroutine()
	shedBefore := total("overload.shed")

	// Slow every cache assembly by 25ms: with one serve thread the
	// pipeline now moves far slower than the storm arrives.
	faultpoint.Delay("serving.sample", 1<<20, 25*time.Millisecond)
	defer faultpoint.Disarm("serving.sample")

	const (
		clients = 24
		perEach = 8
	)
	var (
		mu        sync.Mutex
		latencies []time.Duration
		ok        atomic.Int64
		untyped   atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perEach; r++ {
				start := time.Now()
				_, err := fe.Sample(query.ID(0), 1)
				lat := time.Since(start)
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
				if err == nil {
					ok.Add(1)
				} else if !overload.IsOverload(err) && !overload.IsDeadline(err) {
					untyped.Add(1)
					t.Errorf("untyped burst error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	faultpoint.Disarm("serving.sample")

	if untyped.Load() != 0 {
		t.Fatalf("%d untyped errors under burst", untyped.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under burst")
	}
	if d := total("overload.shed") - shedBefore; d == 0 {
		t.Fatal("storm completed without a single shed")
	}

	// Bounded tail: p99 tracks the end-to-end budget, not queue depth.
	// Generous slack for -race on a loaded machine; an unbounded queue
	// would stack seconds of injected delay here.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	if limit := 3 * budget; p99 > limit {
		t.Fatalf("p99 %v exceeds %v under burst (budget %v)", p99, limit, budget)
	}

	// Drain: a clean request succeeds, admission queues are empty, and the
	// goroutine count returns to the pre-storm baseline.
	drain := time.Now().Add(10 * time.Second)
	for {
		if _, err := fe.Sample(query.ID(0), 1); err == nil {
			break
		}
		if time.Now().After(drain) {
			t.Fatal("frontend never recovered after the burst drained")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if q, in := fe.AdmissionDepth(); q != 0 || in != 0 {
		t.Fatalf("admission queue not drained: queued=%d inflight=%d", q, in)
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines grew after drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
