package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"helios/internal/graph"
	"helios/internal/workload"
)

// TestMain lets the test binary play the SUT child: startChild re-executes
// os.Executable() with the `sut` subcommand, and under `go test` that is
// this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := sutMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark sut:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

// TestWindowP99s: 300 responses spread evenly over a 3 s phase, every one
// 1 ms except a 50 ms stall of five in the middle second. The stall owns the
// whole-phase p99; it moves one window's p99 and not the median of the three.
func TestWindowP99s(t *testing.T) {
	var at []time.Duration
	var lat []float64
	for i := 0; i < 300; i++ {
		at = append(at, time.Duration(i)*10*time.Millisecond)
		ms := 1.0
		if i >= 150 && i < 155 {
			ms = 50
		}
		lat = append(lat, ms)
	}
	at[299] = 3*time.Second + time.Millisecond // answered just after the phase ended: last window
	p99s, fewest := windowP99s(at, lat, 3*time.Second, 3)
	if len(p99s) != 3 || p99s[0] != 1 || p99s[1] != 50 || p99s[2] != 1 || fewest != 100 {
		t.Errorf("window p99s = %v with at least %d samples each, want [1 50 1] and 100", p99s, fewest)
	}
	if got := median(p99s); got != 1 {
		t.Errorf("median of the window p99s = %v, want 1", got)
	}
	if got := percentile(sortedCopy(lat), 99); got != 50 {
		t.Errorf("whole-phase p99 = %v, want 50 (the stall)", got)
	}
	if p99s, fewest := windowP99s(nil, nil, time.Second, 3); len(p99s) != 3 || fewest != 0 {
		t.Errorf("no samples: p99s %v, fewest %d; want three zeros and 0", p99s, fewest)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{90, 100, 110, 100, 100}); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("spread = %v, want 0.10", got)
	}
}

// TestScheduleAccounting drives the open-loop schedule through a stall: the
// updates that came due meanwhile are sent late, timed from when they were
// due, and what is still unsent at the end is backlog.
func TestScheduleAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	s := &schedule{start: start, interval: 10 * time.Millisecond}
	if due := s.nextDue(); !due.Equal(start) {
		t.Fatalf("first update due at %v, want the start", due)
	}
	if _, late := s.take(start.Add(time.Millisecond)); late != time.Millisecond {
		t.Errorf("first update late by %v, want 1ms", late)
	}
	// The generator stalls until t=55ms: updates 1..5 (due 10..50ms) are
	// overdue and go out back to back.
	now := start.Add(55 * time.Millisecond)
	var lates []time.Duration
	for !s.nextDue().After(now) {
		due, late := s.take(now)
		if want := now.Sub(due); late != want {
			t.Errorf("lateness %v, want %v", late, want)
		}
		lates = append(lates, late)
	}
	want := []time.Duration{45, 35, 25, 15, 5}
	if len(lates) != len(want) {
		t.Fatalf("%d updates sent after the stall, want %d", len(lates), len(want))
	}
	for i := range want {
		if lates[i] != want[i]*time.Millisecond {
			t.Errorf("update %d late by %v, want %vms", i+1, lates[i], want[i])
		}
	}
	if due := s.nextDue(); !due.Equal(start.Add(60 * time.Millisecond)) {
		t.Errorf("next due at +%v, want +60ms", due.Sub(start))
	}
	// Six sent; at t=100ms ten were due (0..90ms).
	if got := s.backlog(start.Add(100 * time.Millisecond)); got != 4 {
		t.Errorf("backlog = %d, want 4", got)
	}
	if got := s.backlog(start.Add(55 * time.Millisecond)); got != 0 {
		t.Errorf("backlog right after catching up = %d, want 0", got)
	}
}

func TestMarkerVisible(t *testing.T) {
	resp := &sampleResponse{Edges: []edgeKey{
		{Hop: 0, Parent: 1, Child: 10, Ts: 5},
		{Hop: 0, Parent: 1, Child: 11, Ts: 9},
		{Hop: 1, Parent: 10, Child: 20, Ts: 7}, // second-hop relations never count
	}}
	if !markerVisible(resp, 9, 2) {
		t.Error("marker with ts 9 is in the first hop but was not seen")
	}
	if markerVisible(resp, 7, 2) {
		t.Error("ts 7 appears only at hop 2: not visible")
	}
	if markerVisible(resp, 8, 2) {
		t.Error("ts 8 is absent and only one newer edge is present: not visible")
	}
	// A full cell of strictly newer edges means the marker was admitted and
	// then displaced.
	if !markerVisible(resp, 4, 2) {
		t.Error("ts 4 displaced by two newer edges in a fan-out-2 cell: visible")
	}
}

// TestMarkerAccounting follows five markers to their ends: every marker sent
// is seen, lost during the phase, lost at its end, or too young to call, and
// a phase that saw too few has no visibility figure to report.
func TestMarkerAccounting(t *testing.T) {
	if got := markerLostAfter(4 * time.Second); got != time.Second {
		t.Errorf("a 4 s phase gives a marker %v, want 1s: a quarter of the phase", got)
	}
	if got := markerLostAfter(time.Minute); got != 5*time.Second {
		t.Errorf("a one-minute phase gives a marker %v, want the 5s cap", got)
	}
	if got := markerLostAfter(12 * time.Second); got != 3*time.Second {
		t.Errorf("a 12 s phase gives a marker %v, want 3s", got)
	}
	if got := markerLostAfter(500 * time.Millisecond); got != time.Second {
		t.Errorf("a smoke-test phase gives a marker %v, want the 1s floor", got)
	}

	start := time.Unix(1000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	p := &phase{
		start: start, end: at(4000), lost: time.Second,
		ref: handGraph(), touched: make(map[graph.VertexID]time.Time),
		outstanding: []marker{
			{seed: 1, ts: 9, due: at(100)},   // seen below
			{seed: 2, ts: 10, due: at(200)},  // nobody answers for seed 2: lost in the phase
			{seed: 1, ts: 20, due: at(2900)}, // still unseen at the end, 1.1 s old: lost
			{seed: 1, ts: 21, due: at(3500)}, // 0.5 s old at the end: too young to call
		},
		markers: 4,
	}
	resp := &sampleResponse{Edges: []edgeKey{{Hop: 0, Parent: 1, Child: 10, Ts: 9}}}
	p.observe(1, resp, at(103))
	if len(p.visibility) != 1 || p.visibility[0] != 3 || len(p.outstanding) != 3 {
		t.Fatalf("after the first response: visibility %v, %d outstanding; want [3] and 3", p.visibility, len(p.outstanding))
	}
	p.observe(1, resp, at(1300)) // 1.1 s after seed 2's marker was due
	if p.markerFail != 1 || len(p.outstanding) != 2 {
		t.Fatalf("after 1.3 s: %d lost, %d outstanding; want 1 and 2", p.markerFail, len(p.outstanding))
	}
	err := p.closeMarkers()
	if p.markerFail != 2 || p.markerLate != 1 || len(p.outstanding) != 0 {
		t.Errorf("at the end: %d lost, %d too young, %d outstanding; want 2, 1 and 0", p.markerFail, p.markerLate, len(p.outstanding))
	}
	if err == nil {
		t.Error("1 marker seen and 2 lost: closeMarkers must refuse to call that a visibility figure")
	}
	if p.firstErr == nil {
		t.Error("a lost marker must leave its cause in firstErr")
	}

	seen := &phase{end: at(4000), lost: time.Second, markers: 3, visibility: []float64{1, 2}}
	if err := seen.closeMarkers(); err != nil {
		t.Errorf("2 of 3 markers seen, none outstanding: %v", err)
	}
	// A slow observer (the race build) sees a minority and loses none: the
	// rest had no time, which is not a failure.
	young := &phase{end: at(500), lost: time.Second, markers: 93, visibility: make([]float64, 24)}
	for i := 0; i < 69; i++ {
		young.outstanding = append(young.outstanding, marker{seed: 1, ts: graph.Timestamp(100 + i), due: at(100)})
	}
	if err := young.closeMarkers(); err != nil || young.markerLate != 69 || young.markerFail != 0 {
		t.Errorf("24 seen, 69 too young, none lost: err %v, %d too young, %d lost", err, young.markerLate, young.markerFail)
	}
	none := &phase{end: at(4000), lost: time.Second}
	if err := none.closeMarkers(); err == nil {
		t.Error("a phase without a single visibility sample must not report 0 ms")
	}
}

// handGraph is a two-hop reference over a hand-built graph: seed 1 has three
// Has edges (fan-out 2 keeps the newest two), person 11 has two Knows edges.
func handGraph() *refGraph {
	hops := []workload.QueryHopSpec{{Edge: "Has", Fanout: 2}, {Edge: "Knows", Fanout: 2}}
	g := newRefGraph(hops, map[string]graph.EdgeType{"Has": 0, "Knows": 1})
	for _, v := range []graph.VertexID{1, 10, 11, 12, 20, 21} {
		g.apply(graph.NewVertexUpdate(graph.Vertex{ID: v, Feature: []float32{float32(v), 0.5}}))
	}
	for _, e := range []graph.Edge{
		{Src: 1, Dst: 10, Type: 0, Ts: 1},
		{Src: 1, Dst: 11, Type: 0, Ts: 2},
		{Src: 11, Dst: 20, Type: 1, Ts: 3},
		{Src: 1, Dst: 12, Type: 0, Ts: 4}, // evicts 1->10
		{Src: 11, Dst: 21, Type: 1, Ts: 5},
		{Src: 10, Dst: 20, Type: 1, Ts: 6}, // 10 is no longer sampled
	} {
		g.apply(graph.NewEdgeUpdate(e))
	}
	return g
}

// handResponse is the gateway body a correct deployment returns for seed 1
// of handGraph.
func handResponse() *sampleResponse {
	return &sampleResponse{
		Layers: [][]uint64{{1}, {12, 11}, {21, 20}},
		Edges: []edgeKey{
			{Hop: 0, Parent: 1, Child: 12, Ts: 4},
			{Hop: 0, Parent: 1, Child: 11, Ts: 2},
			{Hop: 1, Parent: 11, Child: 21, Ts: 5},
			{Hop: 1, Parent: 11, Child: 20, Ts: 3},
		},
		Features: json.RawMessage(`{"1":[1,0.5],"11":[11,0.5],"12":[12,0.5],"20":[20,0.5],"21":[21,0.5]}`),
	}
}

func TestOracleHandBuilt(t *testing.T) {
	g := handGraph()
	edges, feats := g.expected(1)
	want := []edgeKey{
		{Hop: 0, Parent: 1, Child: 11, Ts: 2},
		{Hop: 0, Parent: 1, Child: 12, Ts: 4},
		{Hop: 1, Parent: 11, Child: 20, Ts: 3},
		{Hop: 1, Parent: 11, Child: 21, Ts: 5},
	}
	if len(edges) != len(want) {
		t.Fatalf("expected(1) = %+v, want %+v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("relation %d = %+v, want %+v", i, edges[i], want[i])
		}
	}
	if len(feats) != 5 || feats[10] != nil {
		t.Errorf("features cover %d vertices (evicted 10 present: %v), want the 5 in the tree", len(feats), feats[10] != nil)
	}
	if err := g.checkExact(1, handResponse()); err != nil {
		t.Errorf("correct response rejected: %v", err)
	}

	mutations := map[string]func(*sampleResponse){
		"stale first hop": func(r *sampleResponse) {
			r.Layers[1][0], r.Edges[0] = 10, edgeKey{Hop: 0, Parent: 1, Child: 10, Ts: 1}
		},
		"missing second hop": func(r *sampleResponse) {
			r.Layers[2], r.Edges = r.Layers[2][:1], r.Edges[:3]
		},
		"wrong feature": func(r *sampleResponse) {
			r.Features = json.RawMessage(`{"1":[1,0.5],"11":[11,0.5],"12":[12,0.5],"20":[20,0.5],"21":[21,0.25]}`)
		},
		"missing feature": func(r *sampleResponse) {
			r.Features = json.RawMessage(`{"1":[1,0.5],"11":[11,0.5],"12":[12,0.5],"20":[20,0.5]}`)
		},
	}
	for name, mutate := range mutations {
		r := handResponse()
		mutate(r)
		if err := g.checkExact(1, r); err == nil {
			t.Errorf("%s: accepted by the exact check", name)
		}
	}

	// The validity check accepts any well-formed tree of real edges — here
	// the answer from before edge 4 arrived — and rejects malformed ones.
	stale := &sampleResponse{
		Layers: [][]uint64{{1}, {10, 11}, {20, 20, 21}},
		Edges: []edgeKey{
			{Hop: 0, Parent: 1, Child: 10, Ts: 1},
			{Hop: 0, Parent: 1, Child: 11, Ts: 2},
			{Hop: 1, Parent: 10, Child: 20, Ts: 6},
			{Hop: 1, Parent: 11, Child: 20, Ts: 3},
			{Hop: 1, Parent: 11, Child: 21, Ts: 5},
		},
	}
	if err := g.checkValid(1, stale); err != nil {
		t.Errorf("stale but well-formed response rejected by the validity check: %v", err)
	}
	if err := g.checkExact(1, stale); err == nil {
		t.Error("stale response accepted by the exact check")
	}
	invalid := map[string]func(*sampleResponse){
		"relation never sent":    func(r *sampleResponse) { r.Edges[0].Child = 99 },
		"timestamp never sent":   func(r *sampleResponse) { r.Edges[0].Ts = 1000 },
		"wrong seed":             func(r *sampleResponse) { r.Layers[0][0] = 2 },
		"layer count":            func(r *sampleResponse) { r.Layers = r.Layers[:2] },
		"layer size":             func(r *sampleResponse) { r.Layers[2] = append(r.Layers[2], 20) },
		"parent not sampled":     func(r *sampleResponse) { r.Layers[1] = []uint64{12, 12} },
		"edge type of wrong hop": func(r *sampleResponse) { r.Edges[2] = edgeKey{Hop: 1, Parent: 1, Child: 11, Ts: 2} },
		"over fan-out": func(r *sampleResponse) {
			r.Layers[1] = append(r.Layers[1], 10)
			r.Edges = append(r.Edges, edgeKey{Hop: 0, Parent: 1, Child: 10, Ts: 1})
		},
	}
	for name, mutate := range invalid {
		r := handResponse()
		mutate(r)
		if err := g.checkValid(1, r); err == nil {
			t.Errorf("%s: accepted by the validity check", name)
		}
	}
}

// benchmarkJSON is the driver's description of this benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func direction(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// harness prints from in step: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	// traceOpsFor gives the full traceOps at defaultSeconds, so that is what
	// the driver must pass.
	if b.RunSeconds != defaultSeconds || traceOpsFor(float64(b.RunSeconds)) != traceOps {
		t.Errorf("run_seconds is %d, the harness's default %d; a traced run would time %d ops, want %d",
			b.RunSeconds, defaultSeconds, traceOpsFor(float64(b.RunSeconds)), traceOps)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != direction(d.higher) || got.Bound != gateOf(d.name) {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, harness has %+v bound %v", i, got, d, gateOf(d.name))
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != direction(d.higher) {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness has %+v", i, got, d)
		}
	}
}

// TestResultsFileSchema round-trips a results file and checks the driver's
// result line has exactly the contract's keys.
func TestResultsFileSchema(t *testing.T) {
	run := &runResult{
		Workload: "serve_2hop", Seed: 7, Seconds: 10, Attempted: 100, Failed: 0,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	for i, d := range endToEnd {
		run.EndToEnd[d.name] = metric{Value: float64(i) + 0.5, Unit: d.unit, Samples: 10}
	}
	for i, d := range perLayer {
		run.PerLayer[d.name] = metric{Value: float64(i) + 0.25, Unit: d.unit}
	}
	file := &resultsFile{
		Schema: resultsSchema, Host: thisHost(),
		Params: resultsParams{Seed: 7, Seconds: 10, Trials: 3, Shrink: sizeShrink, Repeat: 1},
		Runs:   []*runResult{run},
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := writeJSONFile(path, file); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Host.GoVersion == "" || back.Host.NProc < 1 || back.Host.GOMAXPROCS < 1 || back.Host.Commit == "" {
		t.Errorf("host record incomplete: %+v", back.Host)
	}
	if back.Params != file.Params {
		t.Errorf("params %+v, want %+v", back.Params, file.Params)
	}
	if got := back.values("serve_2hop", "query_qps"); len(got) != 1 || got[0] != 1.5 {
		t.Errorf("query_qps read back as %v, want [1.5]", got)
	}
	var raw map[string]json.RawMessage
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "host", "params", "runs"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("results file lacks %q", key)
		}
	}

	for _, traced := range []bool{false, true} {
		line, err := json.Marshal(run.contract(traced))
		if err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatal(err)
		}
		if len(obj) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", obj)
		}
		var metrics map[string]contractMetric
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics in the result line, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s missing or unit %q, want %q", traced, d.name, m.Unit, d.unit)
			}
		}
	}

	file.Schema = "something-else/9"
	if err := writeJSONFile(path, file); err != nil {
		t.Fatal(err)
	}
	if _, err := readResults(path); err == nil {
		t.Error("a results file of another schema was accepted")
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := metricDef{name: "query_p50_ms", unit: "ms"}
	higher := metricDef{name: "query_qps", unit: "1/s", higher: true}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{1.0, 1.3, 0.7, 1.2, 0.8, 1.0, 1.25, 0.75, 1.1, 0.9}
	for _, c := range []struct {
		name   string
		def    metricDef
		change []float64
		want   string
	}{
		{"20% faster", lower, scaled(0.8), "gain"},
		{"30% slower", lower, scaled(1.3), "REGRESSION"},
		// Under the driver's 25 % gate, but past the tenth compare applies.
		{"20% slower", lower, scaled(1.2), "REGRESSION"},
		{"5% slower, inside the tenth", lower, scaled(1.05), "unchanged"},
		{"same", lower, parent, "unchanged"},
		{"20% more throughput", higher, scaled(1.2), "gain"},
		{"30% less throughput", higher, scaled(0.7), "REGRESSION"},
		{"too noisy to tell", lower, noisy, "unresolved"},
		// Wins every pair, but by less than the parent's own spread.
		{"wins within the noise", lower, scaled(0.995), "unchanged"},
	} {
		if got, _, pairs := compareVerdict(c.def, parent, c.change); got != c.want || pairs != len(parent) {
			t.Errorf("%s: verdict %q over %d pairs, want %q over %d", c.name, got, pairs, c.want, len(parent))
		}
	}
}

// TestSmoke boots the SUT child and runs every workload end to end for half a
// second on a few hundred vertices, and a traced run beside them, so a
// refactor that breaks the benchmark's import surface, the child protocol or
// the oracle fails here. The five run side by side to keep `go test ./...`
// short.
func TestSmoke(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		t.Parallel()
		traceSmoke(t)
	})
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(runParams{
				def: def, seed: 5, seconds: 0.5, trials: 1, shrink: 0.004,
				logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.FirstErr)
			}
			for _, d := range endToEnd {
				if m, ok := res.EndToEnd[d.name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, m.Value)
				}
			}
		})
	}
}

// traceSmoke runs a traced run on a tiny graph the way `run -trace 1` does
// and checks that every per-layer metric is reported, the span file is
// written, and the query path's self times add up to the gateway span.
func traceSmoke(t *testing.T) {
	def, _ := workloadByName("serve_1hop")
	res, err := runWorkload(runParams{def: def, seed: 5, seconds: 0.5, trials: 1, shrink: 0.004, logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	spanPath := filepath.Join(t.TempDir(), "trace.json")
	tp := traceParams{def: def, seed: 5, shrink: 0.004, ops: 40, tmpDir: t.TempDir()}
	if err := addTrace(res, tp, spanPath); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.FirstErr)
	}
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.name]; !ok {
			t.Errorf("per-layer metric %s was not reported", d.name)
		}
	}

	data, err := os.ReadFile(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	// Rebuild the per-layer durations from the span file, by request id.
	byID := make(map[int]map[string]float64)
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s of request %d ends before it starts", s.Name, s.ID)
		}
		if byID[s.ID] == nil {
			byID[s.ID] = make(map[string]float64)
		}
		byID[s.ID][s.Name] = float64(s.End-s.Start) / 1e3
	}
	durs := make([][]float64, len(queryLayers))
	for _, layers := range byID {
		if _, ok := layers[queryLayers[0]]; !ok {
			continue // an update-path id
		}
		for l, name := range queryLayers {
			durs[l] = append(durs[l], layers[name])
		}
	}
	if len(durs[0]) == 0 {
		t.Fatal("no gateway spans in the span file")
	}
	kept := keepFastest(durs...)
	want := 0.0
	for _, id := range kept {
		want += durs[0][id]
	}
	want /= float64(len(kept))
	sum := 0.0
	for _, name := range []string{"frontend.gateway_self_us", "frontend.sample_self_us", "rpc.sample_self_us", "serving.sample_us"} {
		sum += res.PerLayer[name].Value
	}
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("query-path self times add up to %.3fus, the gateway span is %.3fus", sum, want)
	}
}
