package frontend_test

import (
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/serving"
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
