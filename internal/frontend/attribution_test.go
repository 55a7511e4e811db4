package frontend_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/cluster"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/sampler"
	"helios/internal/serving"
)

// attributionDelay is the tail spike injected into the serve path. Large
// against the sub-millisecond in-process baseline, small enough to keep
// the test fast; the assertions use half of it as the spike threshold so
// bucket quantization (~4.6%) and scheduler noise cannot flake them.
const attributionDelay = 40 * time.Millisecond

// TestP99SpikeAttributableEndToEnd is the tail-attribution acceptance
// drill: induce a p99 spike with a faultpoint delay on serving.sample and
// follow it through every observability surface in one run —
//
//  1. the serving.khop_assembly stage histogram's p99 shifts,
//  2. its p99 bucket exemplar names the guilty trace ID,
//  3. /traces resolves that ID to a span breakdown dominated by the
//     khop_assembly stage,
//  4. structured log lines carry the same trace ID,
//  5. the /slo burn rate reflects the blown objective.
func TestP99SpikeAttributableEndToEnd(t *testing.T) {
	// Wall clock throughout: the injected delay is a real sleep, so the
	// stage durations must come from the same clock that sleep blocks.
	clk := clock.Wall()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64, 8)
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, "cluster").WithClock(clk)

	var o cluster.Options
	o.Sampler.Worker = sampler.Config{Clock: clk, Metrics: reg}
	o.Server.Worker = serving.Config{Clock: clk, Metrics: reg, Tracer: tracer, SlowLog: attributionDelay / 2}
	o.Server.Logger = logger
	o.Frontend = cluster.FrontendOptions{
		Clock: clk, Registry: reg, Tracer: tracer,
		SLOTarget: attributionDelay / 2, SLOWindow: time.Minute, SlowLog: attributionDelay / 2,
	}
	o.Frontend.Logger = logger
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
	for _, e := range []graph.Edge{
		{Src: 1, Dst: 100, Type: click, Ts: 10, Weight: 1},
		{Src: 100, Dst: 101, Type: copurchase, Ts: 11, Weight: 1},
	} {
		if err := fe.Ingest(graph.NewEdgeUpdate(e)); err != nil {
			t.Fatal(err)
		}
	}
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

	// Baseline traffic: fast untraced samples fill the low buckets.
	for i := 0; i < 40; i++ {
		if _, err := fe.Sample(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	khopKey := obs.Name(obs.StageMetric, "stage", obs.StageServingKHop)
	before := reg.Snapshot().Stages[khopKey]
	if before.Count == 0 {
		t.Fatalf("no baseline khop observations under %q", khopKey)
	}
	if before.P99 >= (attributionDelay / 2).Nanoseconds() {
		t.Fatalf("baseline khop p99 %dns already above the spike threshold", before.P99)
	}

	// Induce the spike: exactly the next serve — the traced one — stalls.
	faultpoint.Delay("serving.sample", 1, attributionDelay)
	defer faultpoint.Disarm("serving.sample")
	res, qtrace, err := fe.SampleTraced(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 3 || qtrace == 0 {
		t.Fatalf("traced sample = %d layers, trace %x", len(res.Layers), qtrace)
	}
	faultpoint.Disarm("serving.sample")

	spikeNS := (attributionDelay / 2).Nanoseconds()

	// 1. Stage histogram shift: the khop p99 now sits at the spike.
	after := reg.Snapshot().Stages[khopKey]
	if after.P99 < spikeNS {
		t.Fatalf("khop p99 did not shift: before %dns after %dns (spike %dns)",
			before.P99, after.P99, spikeNS)
	}

	// 2. The p99 exemplar names the guilty trace.
	if after.P99Exemplar != obs.TraceHex(qtrace) {
		t.Fatalf("p99 exemplar = %q, want trace %q (exemplars: %+v)",
			after.P99Exemplar, obs.TraceHex(qtrace), after.Exemplars)
	}

	// 3. The trace resolves to a span breakdown dominated by khop assembly.
	tr, ok := tracer.Find(qtrace)
	if !ok {
		t.Fatalf("trace %x not resolvable", qtrace)
	}
	var khop, worstOther int64
	for _, s := range tr.Spans {
		if s.Name == obs.StageServingKHop {
			khop = s.Dur
		} else if s.Dur > worstOther {
			worstOther = s.Dur
		}
	}
	if khop < spikeNS {
		t.Fatalf("khop span %dns below spike %dns: %+v", khop, spikeNS, tr.Spans)
	}
	if khop <= worstOther {
		t.Fatalf("khop span %dns does not dominate (worst other %dns): %+v",
			khop, worstOther, tr.Spans)
	}

	// 4. Log lines carry the same trace ID (serving's slow-serve line and
	// the frontend's slow-sample line).
	logs := logBuf.String()
	needle := `"trace":"` + obs.TraceHex(qtrace) + `"`
	if !strings.Contains(logs, needle) {
		t.Fatalf("no log line stamped with %s:\n%s", needle, logs)
	}
	if !strings.Contains(logs, obs.StageServingKHop) {
		t.Fatalf("slow-serve log does not name the guilty stage:\n%s", logs)
	}

	// 5. The blown objective shows on /slo, and the exemplar survives the
	// HTTP metrics surface — the full walk an operator would take.
	gateway := "http://" + c.Frontend.Addr
	resp, err := http.Get(gateway + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var sloDoc struct {
		SLOs map[string]obs.SLOSnapshot `json:"slos"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sloDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	slo, ok := sloDoc.SLOs["frontend.sample_latency"]
	if !ok || slo.Bad == 0 {
		t.Fatalf("/slo does not show the blown objective: %+v", sloDoc.SLOs)
	}
	resp, err = http.Get(gateway + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := snap.Stages[khopKey].P99Exemplar; got != obs.TraceHex(qtrace) {
		t.Fatalf("/metrics exemplar = %q, want %q", got, obs.TraceHex(qtrace))
	}
}
