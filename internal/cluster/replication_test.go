package cluster

import (
	"os"
	"testing"
	"time"

	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/sampler"
)

func TestServerReplication(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2, ServerReplicas: 2,
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Servers) != 4 {
		t.Fatalf("expected 2×2 serving workers, got %d", len(c.Servers))
	}

	u := userID(3)
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(1), Type: g.click, Ts: 1}))
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(2), Type: g.click, Ts: 2}))
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: itemID(1), Dst: itemID(5), Type: g.copurch, Ts: 3}))
	if err := c.WaitQuiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Every replica of the owning partition converges to the same state.
	p := graph.NewPartitioner(2).Of(u)
	reps := c.Servers[p*2 : (p+1)*2]
	if len(reps) != 2 {
		t.Fatalf("replicas = %d", len(reps))
	}
	want := []graph.VertexID{itemID(1), itemID(2)}
	for i, w := range reps {
		res, err := w.Sample(0, u)
		if err != nil {
			t.Fatal(err)
		}
		got := sortedIDs(res.Layers[1])
		if !idsEqual(got, want) {
			t.Fatalf("replica %d hop-1 = %v, want %v", i, got, want)
		}
	}

	// Route round-robins: with many samples, both replicas serve.
	for i := 0; i < 20; i++ {
		if _, err := c.Sample(0, u); err != nil {
			t.Fatal(err)
		}
	}
	served := 0
	for _, w := range reps {
		if w.Stats().Served > 0 {
			served++
		}
	}
	if served != 2 {
		t.Fatalf("round-robin used %d of 2 replicas", served)
	}
}

func TestClusterTTLExpiry(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Samplers: 1, Servers: 1,
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
		TTL:     150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u := userID(1)
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(1), Type: g.click, Ts: 1}))
	if err := c.WaitQuiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Sample(0, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers[1]) != 1 {
		t.Fatal("entry missing before TTL")
	}
	// With no further touches, both the sampling-side reservoir and the
	// serving cache entry must expire.
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err = c.Sample(0, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Layers[1]) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TTL never expired the cached sample")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The two sides sweep on their own timers; the sampler's may fire a
	// tick after the cache's.
	for c.Samplers[0].Stats().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampling worker recorded no expiries")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorCheckpointing runs the cmd/ topology with fast telemetry
// (the liveness beat): the collector on the broker sees every worker, the
// periodic checkpoints land on disk, and a fresh worker can restore one.
func TestCoordinatorCheckpointing(t *testing.T) {
	g := newTestGraph()
	cfg, err := deployFor(localConfig{
		Samplers: 2, Servers: 1,
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Brokers: 1}
	o.Sampler.TelemetryEvery, o.Server.TelemetryEvery = 10*time.Millisecond, 10*time.Millisecond
	c, err := Boot(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(1), Dst: itemID(1), Type: g.click, Ts: 1}))
	if err := c.WaitQuiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.EnableCheckpoints(dir, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := len(c.Brokers[0].Collector.View().Workers) == 3 // 2 samplers + 1 server
		for i := range c.Samplers {
			if _, err := os.Stat(CheckpointPath(dir, i)); err != nil {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoints never written or workers never beat: %v", c.Brokers[0].Coord.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A fresh worker must be able to restore the written checkpoint.
	w, err := sampler.New(sampler.Config{
		ID: 0, NumSamplers: 2, NumServers: 1,
		Plans: c.Config.Plans, Schema: g.schema, Broker: c.Broker,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RestoreFile(CheckpointPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
}
