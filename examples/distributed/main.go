// Distributed topology demo: boots the exact multi-process deployment the
// cmd/ binaries run — three replicated brokers (replica 0 hosting the
// coordinator), sampling and serving workers on their own broker
// connections, serving RPC endpoints, and the HTTP frontend — inside one
// process through cluster.Boot, the same role constructors the binaries
// call, so you can watch the whole §4.1 architecture work end to end
// without juggling eight terminals. Three optional drills then break it.
//
// (To run it as real separate processes, see the README's
// "Multi-process deployment" section.)
//
// Run with: go run ./examples/distributed
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/cluster"
	"helios/internal/coord"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/monitor"
	"helios/internal/obs"
	"helios/internal/rpc"
	"helios/internal/wire"
)

const clusterConfig = `{
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

const replicas = 3

// gateway is the frontend's HTTP base URL; the demo drives the system
// through it exactly as an application would.
var gateway string

func post(path string, body map[string]any) int {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(gateway+path, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// postRetry drives an ingest until the gateway accepts it: a 202 means the
// broker append returned, which under replication means the record is held
// by a quorum.
func postRetry(path string, body map[string]any) {
	await("POST "+path+" never accepted", func() bool { return post(path, body) == http.StatusAccepted })
}

// await polls ok until it holds; what names the wait in the failure.
func await(what string, ok func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			log.Fatal(what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitSample polls seed 1's sample until the gateway answers 200 with
// layers satisfying ok, and returns them.
func awaitSample(what string, ok func(layers [][]uint64) bool) [][]uint64 {
	var out struct {
		Layers [][]uint64 `json:"layers"`
	}
	await(what, func() bool {
		resp, err := http.Get(gateway + "/sample?q=0&seed=1")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		out.Layers = nil
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode == http.StatusOK && len(out.Layers) == 3 && ok(out.Layers)
	})
	return out.Layers
}

func main() {
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /cluster and pprof on this address (empty = disabled)")
	linger := flag.Duration("linger", 0, "keep the deployment alive this long after the demo (for ops scraping)")
	telemetryEvery := flag.Duration("telemetry-every", 500*time.Millisecond, "cluster telemetry snapshot interval (0 = disabled)")
	flightDir := flag.String("flight-dir", "", "flight-recorder capture directory (empty = captures disabled)")
	chaos := flag.Bool("chaos", false, "after the demo, kill and restart a broker endpoint and prove reconvergence")
	burst := flag.Bool("burst", false, "after the demo, slow the serve path and fire a request storm to demo admission control and graceful degradation")
	failoverDrill := flag.Bool("failover", false, "at the end, permanently kill a partition leader broker and prove zero quorum-acked records are lost across the promotion")
	flag.Parse()

	cfg, err := deploy.Parse([]byte(clusterConfig))
	if err != nil {
		log.Fatal(err)
	}

	// Every "process" shares the demo's registry and tracer, so the ops
	// listener sees the whole pipeline. Replication reports and failure
	// detection run fast enough to watch a failover in seconds.
	reg, tracer := obs.Default(), obs.DefaultTracer()
	ctl := cluster.Control{TelemetryEvery: *telemetryEvery}
	o := cluster.Options{Brokers: replicas}
	o.Broker = cluster.BrokerOptions{
		ReplReportEvery: 100 * time.Millisecond, ReplDeadAfter: time.Second,
		Registry: reg, Control: ctl,
	}
	o.Broker.Replication.Quorum = 2
	o.Broker.Collector.Registry = reg
	if *flightDir != "" {
		if o.Broker.Collector.Recorder, err = monitor.NewFlightRecorder(*flightDir, 0, nil); err != nil {
			log.Fatal(err)
		}
	}
	o.Sampler = cluster.SamplerOptions{Control: ctl}
	o.Sampler.Worker.Metrics = reg
	o.Server = cluster.ServerOptions{Control: ctl}
	o.Server.Worker.Metrics, o.Server.Worker.Tracer = reg, tracer
	if *burst {
		// Tiny admission capacity plus the degraded path, so the storm
		// visibly saturates serving and falls back to cached answers.
		w := &o.Server.Worker
		w.MaxInflight, w.MaxAdmitQueue = 2, 2
		w.Degrade, w.DegradeInflight = true, 4
	}
	o.Frontend = cluster.FrontendOptions{Registry: reg, Tracer: tracer, Control: ctl}

	c, err := cluster.Boot(cfg, o)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	gateway = "http://" + c.Frontend.Addr
	for i, b := range c.Brokers {
		fmt.Printf("broker replica %d on %s\n", i, b.Addr)
	}
	for i, s := range c.ServerRoles {
		fmt.Printf("serving worker %d on %s\n", i, s.Addr)
	}
	fmt.Println("HTTP frontend on", gateway)

	// The aggregate cluster view comes from the collector on broker 0,
	// where the helios-broker binary serves it too.
	ops, err := obs.ServeDefault(*opsAddr,
		obs.Route{Pattern: "GET /cluster", Handler: c.Brokers[0].Collector.Handler()})
	if err != nil {
		log.Fatal(err)
	}
	defer ops.Close()
	if ops != nil {
		fmt.Println("ops listening on", ops.Addr())
	}

	post("/ingest/vertex", map[string]any{"id": 1, "type": "User", "feature": []float32{1}})
	for i := 0; i < 3; i++ {
		post("/ingest/vertex", map[string]any{"id": 100 + i, "type": "Item", "feature": []float32{float32(i)}})
		post("/ingest/edge", map[string]any{"src": 1, "dst": 100 + i, "type": "Click", "ts": i + 1})
	}
	post("/ingest/edge", map[string]any{"src": 100, "dst": 102, "type": "CoPurchase", "ts": 10})

	// Poll until the pre-sampled subgraph materializes across the
	// distributed pipeline.
	layers := awaitSample("subgraph never materialized", func(l [][]uint64) bool { return len(l[1]) == 3 })
	fmt.Printf("sample for seed 1: hop-1=%v hop-2=%v\n", layers[1], layers[2])
	fmt.Println("distributed topology demo complete")

	if *chaos {
		// Kill broker 1's RPC endpoint mid-run. The retained log survives
		// inside the broker; every client connection to it dies and
		// self-heals. (Its status beats keep flowing to the controller on
		// broker 0, which correctly does NOT fail its partitions over —
		// this drill is about transport-level self-healing; -failover
		// covers real broker death.)
		victim := c.Brokers[1]
		fmt.Println("chaos: killing broker endpoint")
		victim.StopEndpoint()
		// One ingest while the endpoint is down exercises the resolve/retry
		// path (partitions led by a surviving replica still answer).
		post("/ingest/vertex", map[string]any{"id": 999, "type": "Item", "feature": []float32{9}})
		if err := victim.RestartEndpoint(); err != nil {
			log.Fatalf("chaos: %v", err)
		}
		fmt.Println("chaos: broker endpoint restarted on", victim.Addr)

		// New data after the restart: a second CoPurchase hop. Retry until
		// accepted — the first appends may race the reconnect, and broker
		// appends are at-least-once anyway.
		postRetry("/ingest/vertex", map[string]any{"id": 103, "type": "Item", "feature": []float32{7}})
		postRetry("/ingest/edge", map[string]any{"src": 101, "dst": 103, "type": "CoPurchase", "ts": 20})

		// Reconverge: the new hop-2 vertex must appear in the sample tree.
		layers := awaitSample("chaos: pipeline never reconverged", func(l [][]uint64) bool { return slices.Contains(l[2], 103) })
		fmt.Printf("sample after restart: hop-1=%v hop-2=%v\n", layers[1], layers[2])
		fmt.Printf("chaos reconvergence complete (reconnects=%d retries=%d)\n",
			rpc.TotalReconnects(), rpc.TotalRetries())
	}

	if *burst {
		// Slow every cache assembly and fire a storm with a small
		// end-to-end budget: the frontend sheds what it cannot admit, the
		// serving workers degrade what they cannot refresh, and every
		// refusal is a typed 503/504 — never a hang.
		const budget = 300 * time.Millisecond
		c.Frontend.Node.SetOverload(deploy.OverloadFile{RequestTimeoutMS: int(budget / time.Millisecond), MaxInflight: 8, MaxQueue: 4})
		fmt.Println("burst: delaying serve path and storming the gateway")
		faultpoint.Delay("serving.sample", 1<<20, 20*time.Millisecond)

		const clients, perEach = 16, 12
		var okN, degradedN, shedN, deadlineN, otherN atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < perEach; r++ {
					resp, err := http.Get(gateway + "/sample?q=0&seed=1")
					if err != nil {
						otherN.Add(1)
						continue
					}
					var out struct {
						Degraded bool `json:"degraded"`
					}
					json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusOK && out.Degraded:
						degradedN.Add(1)
					case resp.StatusCode == http.StatusOK:
						okN.Add(1)
					case resp.StatusCode == http.StatusServiceUnavailable:
						shedN.Add(1)
					case resp.StatusCode == http.StatusGatewayTimeout:
						deadlineN.Add(1)
					default:
						otherN.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		faultpoint.Disarm("serving.sample")
		if otherN.Load() > 0 {
			log.Fatalf("burst: %d responses were neither served, shed (503) nor expired (504)", otherN.Load())
		}
		if shedN.Load()+deadlineN.Load() == 0 {
			log.Fatal("burst: storm completed without a single shed or deadline refusal")
		}

		// The burst drains: a clean request succeeds again.
		awaitSample("burst: gateway never recovered after the storm drained", func([][]uint64) bool { return true })
		fmt.Printf("burst drill complete (ok=%d degraded=%d shed=%d deadline=%d total_shed=%d total_degraded=%d)\n",
			okN.Load(), degradedN.Load(), shedN.Load(), deadlineN.Load(),
			reg.Sum("overload.shed"), reg.Sum("overload.degraded"))
	}

	if *failoverDrill {
		// Three new Click edges carrying the stream's largest timestamps:
		// the TopK reservoir (fanout 3) keeps the largest-ts neighbors, so
		// once these are applied, hop-1 for seed 1 must be EXACTLY
		// {200, 201, 202}. Each 202 below means the append was
		// quorum-acked — losing any of them across the failover would leave
		// a stale item in the set, so the exact-set check below is the
		// zero-lost-acks proof.
		fmt.Println("failover: ingesting quorum-acked displacing edges")
		for i := 0; i < 3; i++ {
			postRetry("/ingest/vertex", map[string]any{"id": 200 + i, "type": "Item", "feature": []float32{float32(i)}})
			postRetry("/ingest/edge", map[string]any{"src": 1, "dst": 200 + i, "type": "Click", "ts": 100 + i})
		}

		// The controller only fails over leaders it has seen report (a
		// replica that never reported is "not started yet", not dead), so
		// wait until every replica's status beats have registered — in a
		// real deployment brokers report long before anything fails.
		await("failover: not every replica ever reported", func() bool {
			known := 0
			for _, w := range c.Brokers[0].Coord.Workers() {
				if w.Kind == coord.KindBroker {
					known++
				}
			}
			return known == replicas
		})

		// Permanently kill the broker leading the updates partition those
		// edges landed on: the whole role closes — endpoint, status beats,
		// log — so to the controller the process is gone. (Seed 1 hashes
		// to partition 1, led by replica 1; the controller itself lives on
		// replica 0, whose death this deployment does not survive — see
		// DESIGN.md "Single-coordinator availability".)
		fo := c.Brokers[0].Failover
		target := int(graph.Hash64(1) % uint64(cfg.File.Samplers))
		leaderOf := func(part int) int {
			pm := fo.PartMap()
			return pm.Leader(wire.TopicUpdates, part, replicas)
		}
		victim := leaderOf(target)
		fmt.Printf("failover: killing broker %d (leader of %s/%d)\n", victim, wire.TopicUpdates, target)
		c.Brokers[victim].Close()

		await("failover: controller never promoted a new leader", func() bool { return leaderOf(target) != victim })
		fmt.Printf("failover: %s/%d promoted to broker %d (map v%d)\n",
			wire.TopicUpdates, target, leaderOf(target), fo.PartMap().Version)

		// Zero lost acks: every quorum-acked record must flow through the
		// promoted leader into the serving tier.
		layers := awaitSample("failover: quorum-acked records never served", func(l [][]uint64) bool {
			return len(l[1]) == 3 && slices.Contains(l[1], 200) && slices.Contains(l[1], 201) && slices.Contains(l[1], 202)
		})
		fmt.Printf("sample after failover: hop-1=%v\n", layers[1])

		// Liveness after the promotion: fresh ingest lands on the new
		// leader and flows end to end with the old leader still dead.
		postRetry("/ingest/vertex", map[string]any{"id": 300, "type": "Item", "feature": []float32{3}})
		postRetry("/ingest/edge", map[string]any{"src": 1, "dst": 300, "type": "Click", "ts": 200})
		awaitSample("failover: post-failover ingest never materialized", func(l [][]uint64) bool { return slices.Contains(l[1], 300) })
		fmt.Printf("failover drill complete (lost_acked=0 failovers=%d)\n", fo.Failovers.Value())
	}

	if *linger > 0 {
		fmt.Printf("lingering %s for ops scrapes\n", *linger)
		time.Sleep(*linger)
	}
}
