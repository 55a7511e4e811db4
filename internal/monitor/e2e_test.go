package monitor_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/monitor"
	"helios/internal/obs"
)

const e2eConfig = `{
  "samplers": 1,
  "servers": 2,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(3).by('TopK')"
  ]
}`

// e2eBurnDelay is the serve-path stall injected for the SLO-burn phase:
// well above the 50ms SLO target so every stalled sample burns budget,
// and far above anything scheduler noise produces, so the warmup phase
// cannot burn by accident.
const e2eBurnDelay = 60 * time.Millisecond

// TestClusterObservabilityEndToEnd is the cluster-observability
// acceptance drill from the issue, one run end to end:
//
//  1. a real deployment booted by the assembler (broker, sampler, two
//     serving workers behind RPC endpoints, HTTP frontend) reports
//     telemetry over coord.telemetry into a fake-clock Collector;
//  2. skewed traffic loads partition 1: its /cluster row shows a higher
//     rate than partition 0's;
//  3. a faultpoint-stalled serve path blows the frontend's latency SLO:
//     the burn crosses the capture threshold and the flight recorder
//     persists a capture naming the offending worker, the busiest
//     partition and the worst trace;
//  4. killing a serving worker's reports mid-run flips it to dead in
//     /cluster within one telemetry interval past the threshold, and the
//     next Tick records a worker_death capture.
//
// The data plane runs on the wall clock (real sleeps, real RPC); the
// monitoring plane runs on the collector's fake clock, advanced one
// telemetry interval per reporting round, so every staleness and death
// assertion is deterministic.
func TestClusterObservabilityEndToEnd(t *testing.T) {
	cfg, err := deploy.Parse([]byte(e2eConfig))
	if err != nil {
		t.Fatal(err)
	}

	// Monitoring plane: fake clock, 1s interval (stale at 3s, dead at
	// 9s, one capture per trigger per 10s), flight ring in a temp dir,
	// cluster gauges on their own registry.
	clkM := clock.NewFake()
	flightDir := t.TempDir()
	recorder, err := monitor.NewFlightRecorder(flightDir, 8, clkM)
	if err != nil {
		t.Fatal(err)
	}
	regM := obs.NewRegistry()

	// Data plane: the cmd/ topology over loopback TCP, every worker with
	// its own registry and tracer as in a real multi-process cluster.
	// TelemetryEvery stays 0, so nothing reports or scans by itself: the
	// test delivers each role's snapshots and ticks the collector by hand.
	var o cluster.Options
	o.Brokers = 1
	o.Broker.Collector = monitor.CollectorConfig{
		Clock:    clkM,
		Interval: time.Second,
		Registry: regM,
		Recorder: recorder,
	}
	o.Frontend.SLOTarget, o.Frontend.SLOWindow = 50*time.Millisecond, time.Minute
	c, err := cluster.Boot(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	collector, fe := c.Brokers[0].Collector, c.Frontend.Node
	serverReporter := []*monitor.Reporter{c.ServerRoles[0].Reporter, c.ServerRoles[1].Reporter}
	// reported each round, in order
	reporters := []*monitor.Reporter{c.SamplerRoles[0].Reporter, serverReporter[0], serverReporter[1], c.Frontend.Reporter}

	opsSrv := httptest.NewServer(obs.Handler(regM, obs.NewTracer(8, 2),
		obs.Route{Pattern: "GET /cluster", Handler: collector.Handler()}))
	defer opsSrv.Close()
	getCluster := func() monitor.ClusterView {
		t.Helper()
		resp, err := http.Get(opsSrv.URL + "/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v monitor.ClusterView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// reportRound delivers one telemetry snapshot from every live worker
	// and advances the monitoring clock one interval.
	reportRound := func(skip *monitor.Reporter) {
		t.Helper()
		for _, r := range reporters {
			if r == skip {
				continue
			}
			if err := r.ReportOnce(); err != nil {
				t.Fatal(err)
			}
		}
		clkM.Advance(time.Second)
		collector.Tick() // what the background loop does every interval
	}

	// One seed per partition, chosen with the frontend's own hash so the
	// hot partition is partition 1 by construction.
	part := graph.NewPartitioner(2)
	var coldSeed, hotSeed graph.VertexID
	for id := graph.VertexID(1); coldSeed == 0 || hotSeed == 0; id++ {
		if part.Of(id) == 0 && coldSeed == 0 {
			coldSeed = id
		}
		if part.Of(id) == 1 && hotSeed == 0 {
			hotSeed = id
		}
	}

	user, _ := cfg.Schema.VertexTypeID("User")
	item, _ := cfg.Schema.VertexTypeID("Item")
	click, _ := cfg.Schema.EdgeTypeID("Click")
	for n, seed := range []graph.VertexID{coldSeed, hotSeed} {
		if err := fe.Ingest(graph.NewVertexUpdate(graph.Vertex{ID: seed, Type: user, Feature: []float32{1}})); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			it := graph.VertexID(1000 + 10*n + j)
			if err := fe.Ingest(graph.NewVertexUpdate(graph.Vertex{ID: it, Type: item, Feature: []float32{2}})); err != nil {
				t.Fatal(err)
			}
			if err := fe.Ingest(graph.NewEdgeUpdate(graph.Edge{Src: seed, Dst: it, Type: click, Ts: graph.Timestamp(j + 1), Weight: 1})); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, seed := range []graph.VertexID{coldSeed, hotSeed} {
		deadline := time.Now().Add(15 * time.Second)
		for {
			res, err := fe.Sample(0, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Layers) == 2 && len(res.Layers[1]) == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d never materialized: %+v", seed, res.Layers)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// driveRound issues the given per-seed request counts, pads the round
	// to a fixed wall duration (so the served-count contrast is also a
	// rate contrast), then reports.
	driveRound := func(cold, hot int) {
		t.Helper()
		start := time.Now()
		for i := 0; i < cold; i++ {
			if _, err := fe.Sample(0, coldSeed); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < hot; i++ {
			if _, err := fe.Sample(0, hotSeed); err != nil {
				t.Fatal(err)
			}
		}
		if pad := 400*time.Millisecond - time.Since(start); pad > 0 {
			time.Sleep(pad)
		}
		reportRound(nil)
	}

	// Phase 1 — balanced warmup: every worker reports, both partitions
	// serve.
	for round := 0; round < 4; round++ {
		driveRound(40, 40)
	}
	v := getCluster()
	if len(v.Workers) != 4 {
		t.Fatalf("cluster shows %d workers, want 4: %+v", len(v.Workers), v.Workers)
	}
	for _, w := range v.Workers {
		if w.Stale || w.Dead {
			t.Fatalf("warmup worker flagged: %+v", w)
		}
		if w.Version == "" {
			t.Fatalf("worker %s reports no version", w.Name)
		}
	}
	if len(v.Partitions) != 2 {
		t.Fatalf("warmup partitions: %+v", v.Partitions)
	}

	// Phase 2 — skew: partition 1 draws 8× the traffic of partition 0.
	for round := 0; round < 3; round++ {
		driveRound(40, 320)
	}
	v = getCluster()
	p0, p1 := v.Partitions[0], v.Partitions[1]
	if p0.Partition != 0 || p1.Partition != 1 || p0.Worker != "server-0" || p1.Worker != "server-1" {
		t.Fatalf("partition rows: %+v", v.Partitions)
	}
	if p1.RateMilli <= p0.RateMilli {
		t.Fatalf("hot partition rate %d milli-QPS, cold %d: want hot > cold", p1.RateMilli, p0.RateMilli)
	}
	if len(v.Stages) == 0 {
		t.Fatal("no stage rollups federated")
	}

	// Phase 3 — SLO burn: stall the serve path past the 50ms target. 40
	// bad samples against ~900 in the window is ~4.4% of a 1% error
	// budget: burn ≈ 4.4, far over the capture threshold of 2.
	faultpoint.Delay("serving.sample", 41, e2eBurnDelay)
	defer faultpoint.Disarm("serving.sample")
	for i := 0; i < 40; i++ {
		if _, err := fe.Sample(0, hotSeed); err != nil {
			t.Fatal(err)
		}
	}
	_, qtrace, err := fe.SampleTraced(0, hotSeed)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Disarm("serving.sample")
	reportRound(nil)

	paths, err := recorder.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%d captures after the burn, want 1: %v", len(paths), paths)
	}
	doc, err := monitor.ReadCapture(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if doc.Reason != "slo_burn" || doc.Worker != "frontend-0" || doc.SLO != "frontend.sample_latency" {
		t.Fatalf("burn capture = reason %q worker %q slo %q", doc.Reason, doc.Worker, doc.SLO)
	}
	if doc.BurnRateMilli < 2000 {
		t.Fatalf("captured burn %d below threshold", doc.BurnRateMilli)
	}
	if doc.Partition != 1 {
		t.Fatalf("burn capture names partition %d, want the hot partition 1", doc.Partition)
	}
	if doc.WorstTrace.ID != qtrace {
		t.Fatalf("burn capture worst trace %x, want the stalled trace %x", doc.WorstTrace.ID, qtrace)
	}
	if doc.WorstTrace.TotalNS < (e2eBurnDelay / 2).Nanoseconds() {
		t.Fatalf("worst trace total %dns does not show the stall", doc.WorstTrace.TotalNS)
	}
	if len(doc.View.Workers) != 4 || len(doc.History) == 0 {
		t.Fatalf("capture context: %d workers, %d history views", len(doc.View.Workers), len(doc.History))
	}

	// Phase 4 — worker death: server-1 stops reporting. At 4 intervals
	// of silence it shows stale; one interval past nine it shows
	// dead, and the next Tick records the death capture.
	dead := serverReporter[1]
	for i := 0; i < 4; i++ {
		reportRound(dead)
	}
	v = getCluster()
	for _, w := range v.Workers {
		if w.Name == "server-1" && !w.Stale {
			t.Fatalf("silent worker not stale after 4 intervals: %+v", w)
		}
		if w.Name != "server-1" && (w.Stale || w.Dead) {
			t.Fatalf("live worker flagged during server-1 silence: %+v", w)
		}
	}
	if !v.Partitions[1].Stale {
		t.Fatalf("dead worker's partition row not marked stale: %+v", v.Partitions[1])
	}
	for i := 0; i < 6; i++ {
		reportRound(dead)
	}
	v = getCluster()
	for _, w := range v.Workers {
		if got := w.Dead; got != (w.Name == "server-1") {
			t.Fatalf("death state wrong for %s: %+v", w.Name, w)
		}
	}
	if regM.Snapshot().Gauges["cluster.dead_workers"] != 1 {
		t.Fatal("cluster.dead_workers gauge did not flip")
	}

	// The burn outlasts the drill (the SLO window is a wall-clock minute),
	// so the ten-interval cooldown admits at most one more burn capture in
	// the ten rounds above; the death is captured exactly once.
	collector.Tick()
	paths, err = recorder.List()
	if err != nil {
		t.Fatal(err)
	}
	var deaths []string
	for _, p := range paths {
		if strings.Contains(p, "worker_death") {
			deaths = append(deaths, p)
		}
	}
	if len(deaths) != 1 || len(paths) > 3 {
		t.Fatalf("%d death captures of %d after the death, want 1 of at most 3: %v", len(deaths), len(paths), paths)
	}
	doc, err = monitor.ReadCapture(deaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if doc.Reason != "worker_death" || doc.Worker != "server-1" {
		t.Fatalf("death capture = reason %q worker %q", doc.Reason, doc.Worker)
	}
	found := false
	for _, w := range doc.View.Workers {
		if w.Name == "server-1" && w.Dead {
			found = true
		}
	}
	if !found {
		t.Fatalf("death capture view does not show server-1 dead: %+v", doc.View.Workers)
	}
}
