package frontend_test

import (
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/graph"
)

const replicatedConfig = `{
  "samplers": 1,
  "servers": 1,
  "replicas": 2,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(2).by('TopK')"
  ]
}`

// TestReplicaFailover runs a replicated serving partition behind the
// frontend, kills one replica's RPC endpoint mid-run, and checks that
// requests keep succeeding via the survivor, the dead replica is marked
// unhealthy, and the prober re-admits it after restart.
func TestReplicaFailover(t *testing.T) {
	// Two interchangeable replicas of serving partition 0, each consuming
	// the sample queue with its own cursor.
	c, cfg, fe := boot(t, replicatedConfig, cluster.Options{})
	workers := c.Servers

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

	// Both replicas converge independently before the fault.
	hop := cfg.Plans[0].OneHops[0].ID
	deadline := time.Now().Add(10 * time.Second)
	for !workers[0].HasSample(hop, 1) || !workers[1].HasSample(hop, 1) {
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill replica 0's endpoint. Every request must still succeed — the
	// frontend fails over to replica 1 — and the casualty gets marked.
	c.ServerRoles[0].StopEndpoint()
	for i := 0; i < 6; i++ {
		res, err := fe.Sample(0, 1)
		if err != nil {
			t.Fatalf("sample %d during outage: %v", i, err)
		}
		if len(res.Layers) != 2 || len(res.Layers[1]) != 1 || res.Layers[1][0] != 100 {
			t.Fatalf("sample %d layers = %v", i, res.Layers)
		}
	}
	if fe.Failovers.Value() == 0 {
		t.Fatal("no failover recorded")
	}
	snap := fe.Metrics().Snapshot()
	if snap.Gauges["frontend.unhealthy_replicas"] != 1 {
		t.Fatalf("unhealthy gauge = %d, want 1", snap.Gauges["frontend.unhealthy_replicas"])
	}

	// Restart the endpoint on the same address; the prober re-admits it
	// within one probe interval (1s).
	if err := c.ServerRoles[0].RestartEndpoint(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for fe.Metrics().Snapshot().Gauges["frontend.unhealthy_replicas"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica never re-admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := fe.Sample(0, 1); err != nil {
		t.Fatalf("sample after re-admission: %v", err)
	}
}
