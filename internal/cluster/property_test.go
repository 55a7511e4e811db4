package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/sampling"
)

// TestEdgeWeightEndToEnd drives the EdgeWeight strategy through the whole
// pipeline: heavier edges must be sampled proportionally more often across
// many seeds.
func TestEdgeWeightEndToEnd(t *testing.T) {
	g := newTestGraph()
	q, err := query.NewBuilder(g.schema, "User").
		Out("Click", 1, sampling.EdgeWeight).
		Build("ew")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2, Schema: g.schema,
		Queries: []query.Query{q}, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every user clicks item 1 (weight 9) and item 2 (weight 1); with
	// fan-out 1 the heavy edge should be kept ~90% of the time.
	const users = 600
	ts := graph.Timestamp(0)
	for i := 0; i < users; i++ {
		ts++
		mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(i), Dst: itemID(1), Type: g.click, Ts: ts, Weight: 9}))
		ts++
		mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(i), Dst: itemID(2), Type: g.click, Ts: ts, Weight: 1}))
	}
	if err := c.WaitQuiesce(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	heavy := 0
	for i := 0; i < users; i++ {
		res, err := c.Sample(0, userID(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Layers[1]) != 1 {
			t.Fatalf("user %d: fan-out 1 violated: %v", i, res.Layers[1])
		}
		if res.Layers[1][0] == itemID(1) {
			heavy++
		}
	}
	p := float64(heavy) / users
	if p < 0.85 || p > 0.95 {
		t.Fatalf("heavy-edge fraction %.3f, want ≈ 0.90", p)
	}
}

// TestRandomUniformityEndToEnd verifies the pipeline preserves the Random
// strategy's uniformity: over many seeds with identical 10-neighbour
// adjacency and fan-out 1, every neighbour is picked ≈ 1/10 of the time.
func TestRandomUniformityEndToEnd(t *testing.T) {
	g := newTestGraph()
	q, err := query.NewBuilder(g.schema, "User").
		Out("Click", 1, sampling.Random).
		Build("rand1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2, Schema: g.schema,
		Queries: []query.Query{q}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const users, items = 2000, 10
	ts := graph.Timestamp(0)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			ts++
			mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(u), Dst: itemID(i), Type: g.click, Ts: ts}))
		}
	}
	if err := c.WaitQuiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, items)
	for u := 0; u < users; u++ {
		res, err := c.Sample(0, userID(u))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Layers[1]) != 1 {
			t.Fatalf("user %d: %v", u, res.Layers[1])
		}
		counts[int(res.Layers[1][0]-itemID(0))]++
	}
	want := float64(users) / items
	for i, cnt := range counts {
		if math.Abs(float64(cnt)-want) > 5*math.Sqrt(want) {
			t.Fatalf("item %d picked %d times, want ≈ %.0f (counts %v)", i, cnt, want, counts)
		}
	}
}

// TestNoGoroutineLeaks starts and stops a cluster and checks the goroutine
// count returns to baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	g := newTestGraph()
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		c, err := newLocal(localConfig{
			Samplers: 2, Servers: 2, Schema: g.schema,
			Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
		})
		if err != nil {
			t.Fatal(err)
		}
		mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(1), Dst: itemID(1), Type: g.click, Ts: 1}))
		if err := c.WaitQuiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSeedWithNoEdges returns an empty-but-valid result.
func TestSeedWithNoEdges(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Sample(0, userID(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 3 || len(res.Layers[1]) != 0 {
		t.Fatalf("cold seed result malformed: %v", res.Layers)
	}
	if res.SampleMisses == 0 {
		t.Fatal("cold seed should record a miss")
	}
}

// TestDuplicateEdgesAccumulate: multi-edges between the same pair occupy
// multiple reservoir slots (multiplicity semantics).
func TestDuplicateEdgesAccumulate(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u := userID(1)
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(1), Type: g.click, Ts: 1}))
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(1), Type: g.click, Ts: 2}))
	if err := c.WaitQuiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Sample(0, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers[1]) != 2 || res.Layers[1][0] != itemID(1) || res.Layers[1][1] != itemID(1) {
		t.Fatalf("multi-edge slots = %v", res.Layers[1])
	}
}

// TestSoakChurnWithConcurrentServing runs continuous ingest churn, TTL
// sweeps and concurrent sampling for a short soak and asserts zero actor
// panics and zero serving errors — the containment invariant.
func TestSoakChurnWithConcurrentServing(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2, Schema: g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{3, 3})},
		TTL:     200 * time.Millisecond,
		Seed:    77,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		ts := graph.Timestamp(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ts++
			if rng.Intn(3) == 0 {
				c.Ingest(graph.NewEdgeUpdate(graph.Edge{
					Src: itemID(rng.Intn(40)), Dst: itemID(rng.Intn(40)), Type: g.copurch, Ts: ts,
				}))
			} else {
				c.Ingest(graph.NewEdgeUpdate(graph.Edge{
					Src: userID(rng.Intn(30)), Dst: itemID(rng.Intn(40)), Type: g.click, Ts: ts,
				}))
			}
		}
	}()
	var errs atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			deadline := time.Now().Add(1500 * time.Millisecond)
			for time.Now().Before(deadline) {
				if _, err := c.Sample(0, userID(rng.Intn(30))); err != nil {
					errs.Add(1)
				}
			}
		}(int64(w))
	}
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d serving errors during churn", errs.Load())
	}
	for i, w := range c.Samplers {
		if p := w.Stats().Panics; p != 0 {
			t.Fatalf("sampler %d recovered %d panics", i, p)
		}
	}
	for i, w := range c.Servers {
		if p := w.Stats().Panics; p != 0 {
			t.Fatalf("server %d recovered %d panics", i, p)
		}
	}
	if err := c.WaitQuiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}
