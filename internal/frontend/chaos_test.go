package frontend_test

import (
	"runtime"
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/serving"
	"helios/internal/wire"
)

// TestChaosBrokerRestart kills the broker's RPC endpoint mid-run, restarts
// it on the same address, ingests a second batch, and asserts the pipeline
// reconverges to the exact reachable K-hop sample set — the §4.1 recovery
// story: the retained log is the source of truth, clients self-heal, and
// appends are at-least-once.
func TestChaosBrokerRestart(t *testing.T) {
	c, cfg, fe := boot(t, testConfig, cluster.Options{})
	broker := c.Brokers[0]

	userT, _ := cfg.Schema.VertexTypeID("User")
	itemT, _ := cfg.Schema.VertexTypeID("Item")
	clickT, _ := cfg.Schema.EdgeTypeID("Click")
	copT, _ := cfg.Schema.EdgeTypeID("CoPurchase")
	vertex := func(id graph.VertexID, vt graph.VertexType, feat float32) graph.Update {
		return graph.NewVertexUpdate(graph.Vertex{ID: id, Type: vt, Feature: []float32{feat}})
	}
	edge := func(src, dst graph.VertexID, et graph.EdgeType, ts graph.Timestamp) graph.Update {
		return graph.NewEdgeUpdate(graph.Edge{Src: src, Dst: dst, Type: et, Ts: ts})
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// waitFor polls the frontend until the 2-hop sample tree for seed 1
	// matches the wanted per-hop vertex sets exactly.
	waitFor := func(hop1, hop2 []uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		var last *serving.Result
		for {
			res, err := fe.Sample(query.ID(0), 1)
			if err == nil && len(res.Layers) == 3 {
				got1 := asSet(res.Layers[1])
				got2 := asSet(res.Layers[2])
				if equalU64(got1, hop1) && equalU64(got2, hop2) {
					for _, v := range hop2 {
						if len(res.Features[graph.VertexID(v)]) == 0 {
							goto retry
						}
					}
					return
				}
				last = res
			}
		retry:
			if time.Now().After(deadline) {
				t.Fatalf("never reconverged: want hops %v/%v, last %+v (err %v)", hop1, hop2, last, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Batch A, then convergence.
	must(fe.Ingest(vertex(1, userT, 1)))
	must(fe.Ingest(vertex(100, itemT, 2)))
	must(fe.Ingest(vertex(101, itemT, 3)))
	must(fe.Ingest(edge(1, 100, clickT, 10)))
	must(fe.Ingest(edge(100, 101, copT, 11)))
	waitFor([]uint64{100}, []uint64{101})

	// Kill the broker's endpoint. The retained log survives in the Broker;
	// only every TCP connection dies. An ingest during the outage fails
	// after exhausting its retry budget — and proves the retry path ran.
	broker.StopEndpoint()
	if err := fe.Ingest(vertex(102, itemT, 4)); err == nil {
		t.Fatal("ingest succeeded against a dead broker")
	}
	if rpc.TotalRetries() == 0 {
		t.Fatal("no retries recorded during outage")
	}

	// Restart on the same address; every client reconnects by itself.
	if err := broker.RestartEndpoint(); err != nil {
		t.Fatal(err)
	}

	// Batch B: the first appends may race the reconnect, so retry until
	// accepted (at-least-once is the broker append contract anyway).
	ingest := func(u graph.Update) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			if err := fe.Ingest(u); err == nil {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("ingest after restart: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	ingest(vertex(102, itemT, 4))
	ingest(vertex(103, itemT, 5))
	ingest(edge(1, 102, clickT, 20))
	ingest(edge(102, 103, copT, 21))

	// Exact reconvergence: both Click edges of seed 1 (K=2 TopK holds
	// both) and both CoPurchase children.
	waitFor([]uint64{100, 102}, []uint64{101, 103})

	if c.Frontend.Bus.(*mq.RemoteBroker).Client().Reconnects.Value() == 0 {
		t.Fatal("frontend broker client never reconnected")
	}
	snap := fe.Metrics().Snapshot()
	if snap.Counters["rpc.reconnects"] == 0 || snap.Counters["rpc.retries"] == 0 {
		t.Fatalf("rpc metrics not exposed: %v", snap.Counters)
	}
}

// failoverConfig keeps three Click neighbours per user, so three edges
// with the stream's largest timestamps make a hop-1 set that any lost
// record would leave stale.
const failoverConfig = `{
  "samplers": 2,
  "servers": 2,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"},
    {"name": "CoPurchase", "src": "Item", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(3).by('TopK').outV('CoPurchase').sample(2).by('TopK')"
  ]
}`

// TestChaosLeaderFailover closes the broker leading seed 1's updates
// partition outright — endpoint, status beats and log — after quorum-acked
// writes, and asserts the §4.1 recovery contract across the promotion: the
// controller elects a new leader, every acked record is served (hop-1 is
// exactly the three displacing items), fresh ingest flows through the new
// leader, and the deployment still tears down to its goroutine baseline.
func TestChaosLeaderFailover(t *testing.T) {
	const replicas = 3
	baseline := runtime.NumGoroutine()
	cfg, err := deploy.Parse([]byte(failoverConfig))
	if err != nil {
		t.Fatal(err)
	}
	// Broker 0 hosts the controller and exports the set's queue series;
	// beats and death detection are fast enough to fail over in a second.
	reg := obs.NewRegistry()
	o := cluster.Options{Brokers: replicas}
	o.Broker = cluster.BrokerOptions{ReplReportEvery: 100 * time.Millisecond, ReplDeadAfter: time.Second, Registry: reg}
	o.Broker.Replication.Quorum = 2
	c, err := cluster.Boot(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe, fo := c.Frontend.Node, c.Brokers[0].Failover

	userT, _ := cfg.Schema.VertexTypeID("User")
	itemT, _ := cfg.Schema.VertexTypeID("Item")
	clickT, _ := cfg.Schema.EdgeTypeID("Click")
	await := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// ingest returns once the append is quorum-acked; the first appends
	// may race the workers' first partition-map fetch.
	ingest := func(u graph.Update) {
		t.Helper()
		var err error
		await("ingest never accepted", func() bool { err = fe.Ingest(u); return err == nil })
	}
	hop1 := func(want ...uint64) func() bool {
		return func() bool {
			res, err := fe.Sample(query.ID(0), 1)
			return err == nil && len(res.Layers) == 3 && equalU64(asSet(res.Layers[1]), want)
		}
	}
	vertex := func(id graph.VertexID, vt graph.VertexType) graph.Update {
		return graph.NewVertexUpdate(graph.Vertex{ID: id, Type: vt, Feature: []float32{float32(id)}})
	}
	click := func(dst graph.VertexID, ts graph.Timestamp) graph.Update {
		return graph.NewEdgeUpdate(graph.Edge{Src: 1, Dst: dst, Type: clickT, Ts: ts})
	}

	ingest(vertex(1, userT))
	for i := graph.VertexID(0); i < 3; i++ {
		ingest(vertex(100+i, itemT))
		ingest(click(100+i, graph.Timestamp(1+i)))
	}
	await("subgraph never materialized", hop1(100, 101, 102))
	// Three displacing edges: once applied, TopK(3) holds exactly them, so
	// losing any acked one across the failover leaves a stale item behind.
	for i := graph.VertexID(0); i < 3; i++ {
		ingest(vertex(200+i, itemT))
		ingest(click(200+i, graph.Timestamp(100+i)))
	}

	// The controller fails over only leaders it has seen beat, and from
	// broker 0's seat the followers hold every record once its
	// mq.replication_lag gauges read zero.
	await("not every replica ever reported", func() bool {
		return fo.Reported(0) && fo.Reported(1) && fo.Reported(2)
	})
	await("followers never caught up with broker 0", func() bool {
		seen := 0
		for name, lag := range reg.Snapshot().Gauges {
			if base, _ := obs.ParseName(name); base == "mq.replication_lag" {
				if lag != 0 {
					return false
				}
				seen++
			}
		}
		return seen > 0
	})

	target := graph.NewPartitioner(cfg.File.Samplers).Of(1)
	leaderOf := func() int { pm := fo.PartMap(); return pm.Leader(wire.TopicUpdates, target, replicas) }
	victim := leaderOf()
	if victim == 0 {
		t.Fatalf("seed 1's partition %d is led by the controller's own broker", target)
	}
	c.Brokers[victim].Close()
	await("controller never promoted a new leader", func() bool { return leaderOf() != victim })

	await("quorum-acked records never served after the failover", hop1(200, 201, 202))
	ingest(vertex(300, itemT))
	ingest(click(300, 200))
	await("post-failover ingest never served", hop1(201, 202, 300))
	if n := reg.Sum("mq.failovers"); n < 1 {
		t.Fatalf("mq.failovers = %d after a promotion", n)
	}

	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before boot, %d after close\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
