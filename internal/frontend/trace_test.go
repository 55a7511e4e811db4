package frontend_test

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/sampler"
	"helios/internal/serving"
	"helios/internal/wire"
)

// stepClock is a deterministic clock.Clock: every Now() call advances one
// millisecond from a fixed base. Shared across the frontend and every
// worker, it makes all span and staleness durations strictly positive and
// strictly ordered without a single wall-clock sleep backing an assertion.
type stepClock struct {
	base time.Time
	n    atomic.Int64
}

func (c *stepClock) Now() time.Time {
	return c.base.Add(time.Duration(c.n.Add(1)) * time.Millisecond)
}

const traceTestConfig = `{
  "samplers": 1,
  "servers": 1,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"},
    {"name": "CoPurchase", "src": "Item", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(2).by('TopK').outV('CoPurchase').sample(2).by('TopK')"
  ]
}`

// TestTracePropagatesAcrossCluster boots the full deployment over real
// TCP — broker, sampling worker, serving worker behind its RPC endpoint,
// frontend — with one shared registry, tracer and stepping clock, then
// asserts the two trace legs the paper's pipeline has:
//
//   - query path: a trace ID minted by SampleTraced survives the serving
//     RPC and comes back with ≥ 4 named stages whose durations sum to at
//     most the recorded end-to-end latency;
//   - update path: a trace ID minted by IngestTraced rides the MQ record
//     through the sampling worker into the serving cache, where the apply
//     is recorded against it.
//
// The polling loop below waits for cross-goroutine/TCP propagation only;
// every duration assertion derives from the injected stepping clock.
func TestTracePropagatesAcrossCluster(t *testing.T) {
	clk := &stepClock{base: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64, 8)
	var o cluster.Options
	o.Sampler.Worker = sampler.Config{Clock: clk, Metrics: reg}
	o.Server.Worker = serving.Config{Clock: clk, Metrics: reg, Tracer: tracer}
	o.Frontend = cluster.FrontendOptions{Clock: clk, Registry: reg, Tracer: tracer}
	c, cfg, fe := boot(t, traceTestConfig, o)

	click, _ := cfg.Schema.EdgeTypeID("Click")
	copurchase, _ := cfg.Schema.EdgeTypeID("CoPurchase")
	user, _ := cfg.Schema.VertexTypeID("User")
	item, _ := cfg.Schema.VertexTypeID("Item")
	for _, v := range []graph.Vertex{
		{ID: 1, Type: user, Feature: []float32{1, 2}},
		{ID: 100, Type: item, Feature: []float32{3, 4}},
		{ID: 101, Type: item, Feature: []float32{5, 6}},
	} {
		if err := fe.Ingest(graph.NewVertexUpdate(v)); err != nil {
			t.Fatal(err)
		}
	}
	ingestTrace, err := fe.IngestTraced(graph.NewEdgeUpdate(graph.Edge{
		Src: 1, Dst: 100, Type: click, Ts: 10, Weight: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ingestTrace == 0 {
		t.Fatal("IngestTraced minted trace ID 0")
	}
	if err := fe.Ingest(graph.NewEdgeUpdate(graph.Edge{
		Src: 100, Dst: 101, Type: copurchase, Ts: 11, Weight: 1,
	})); err != nil {
		t.Fatal(err)
	}

	// Propagation gate (not a latency assertion): poll the untraced sample
	// path until the sampler-fed cache has materialized the 2-hop subgraph.
	deadline := time.Now().Add(15 * time.Second)
	for {
		res, err := fe.Sample(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Layers) == 3 && len(res.Layers[1]) == 1 && len(res.Layers[2]) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subgraph never materialized: %+v", res.Layers)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Query-path trace: frontend → serving RPC → cache.
	res, qtrace, err := fe.SampleTraced(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qtrace == 0 {
		t.Fatal("SampleTraced minted trace ID 0")
	}
	if len(res.Layers) != 3 {
		t.Fatalf("traced sample returned %d layers", len(res.Layers))
	}
	tr, ok := tracer.Find(qtrace)
	if !ok {
		t.Fatalf("trace %x not retrievable from the tracer", qtrace)
	}
	if tr.ID != qtrace || tr.Op != "sample" {
		t.Fatalf("trace = %+v, want op sample id %x", tr, qtrace)
	}
	stages := map[string]bool{
		"serving.queue_wait":     false,
		"serving.khop_assembly":  false,
		"serving.feature_fetch":  false,
		"frontend.rpc_transport": false,
	}
	for _, s := range tr.Spans {
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration %d", s.Name, s.Dur)
		}
		if _, want := stages[s.Name]; want {
			stages[s.Name] = true
		}
	}
	for name, seen := range stages {
		if !seen {
			t.Errorf("stage %s missing from trace spans %v", name, tr.Spans)
		}
	}
	if len(tr.Spans) < 4 {
		t.Fatalf("trace has %d spans, want >= 4", len(tr.Spans))
	}
	if tr.Total <= 0 {
		t.Fatalf("trace total = %d, want > 0", tr.Total)
	}
	if sum := tr.SpanSum(); sum > tr.Total {
		t.Fatalf("span sum %dns exceeds end-to-end latency %dns", sum, tr.Total)
	}

	// Update-path trace: the materialized subgraph proves the traced Click
	// admission was applied to the cache, so its trace must be recorded.
	utr, ok := tracer.Find(ingestTrace)
	if !ok {
		t.Fatalf("ingest trace %x never reached the serving cache", ingestTrace)
	}
	if utr.Op != "cache_apply" {
		t.Fatalf("ingest trace op = %q, want cache_apply", utr.Op)
	}
	if len(utr.Spans) != 1 || utr.Spans[0].Name != "serving.cache_apply" {
		t.Fatalf("ingest trace spans = %v", utr.Spans)
	}
	if utr.Total <= 0 {
		t.Fatalf("ingest trace staleness = %d, want > 0", utr.Total)
	}

	// Registry: cache hit/miss counters, consumer lag, staleness gauges.
	snap := reg.Snapshot()
	if v := snap.Counters[obs.Name("serving.sample_hits", "worker", "0")]; v == 0 {
		t.Error("serving.sample_hits is zero after a served sample")
	}
	if v := snap.Counters[obs.Name("serving.feature_hits", "worker", "0")]; v == 0 {
		t.Error("serving.feature_hits is zero after a served sample")
	}
	if _, ok := snap.Counters[obs.Name("serving.sample_misses", "worker", "0")]; !ok {
		t.Error("serving.sample_misses not registered")
	}
	for _, lag := range []string{
		obs.Name("mq.consumer_lag", "topic", wire.TopicSamples, "partition", "0"),
		obs.Name("mq.consumer_lag", "topic", wire.TopicUpdates, "partition", "0"),
	} {
		if v, ok := snap.Gauges[lag]; !ok || v < 0 {
			t.Errorf("%s = %d (present=%v), want >= 0", lag, v, ok)
		}
	}
	if v := snap.Gauges[obs.Name("serving.staleness_ns", "worker", "0")]; v <= 0 {
		t.Errorf("serving staleness gauge = %d, want > 0", v)
	}
	if v := snap.Gauges[obs.Name("sampler.refresh_staleness_ns", "worker", "0")]; v <= 0 {
		t.Errorf("sampler staleness gauge = %d, want > 0", v)
	}

	// The same registry and tracer are retrievable over the gateway's ops
	// endpoints.
	gateway := "http://" + c.Frontend.Addr
	resp, err := http.Get(gateway + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var hsnap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&hsnap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := hsnap.Counters[obs.Name("serving.sample_hits", "worker", "0")]; v == 0 {
		t.Error("/metrics JSON missing non-zero sample hit counter")
	}
	resp, err = http.Get(gateway + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Slowest []obs.Trace `json:"slowest"`
		Recent  []obs.Trace `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, got := range append(traces.Recent, traces.Slowest...) {
		if got.ID == qtrace {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("/traces does not include query trace %x", qtrace)
	}
}
