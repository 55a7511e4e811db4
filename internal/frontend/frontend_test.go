package frontend_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/serving"
)

// TestMultiProcessTopology boots the full multi-process deployment over
// real TCP inside one test — a broker server, sampling and serving workers
// connected through RemoteBroker clients, serving RPC endpoints, and the
// HTTP frontend — and drives it through the gateway.
func TestMultiProcessTopology(t *testing.T) {
	c, _, _ := boot(t, testConfig, cluster.Options{})
	gateway := "http://" + c.Frontend.Addr

	// Drive the Fig. 1 workload through HTTP.
	post := func(path string, body any) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(gateway+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: %d", path, resp.StatusCode)
		}
	}
	post("/ingest/vertex", map[string]any{"id": 1, "type": "User", "feature": []float32{1, 2}})
	post("/ingest/vertex", map[string]any{"id": 100, "type": "Item", "feature": []float32{3, 4}})
	post("/ingest/vertex", map[string]any{"id": 101, "type": "Item", "feature": []float32{5, 6}})
	post("/ingest/edge", map[string]any{"src": 1, "dst": 100, "type": "Click", "ts": 10})
	post("/ingest/edge", map[string]any{"src": 100, "dst": 101, "type": "CoPurchase", "ts": 11})

	// Wait for propagation across the distributed pipeline.
	deadline := time.Now().Add(15 * time.Second)
	var out struct {
		Layers   [][]uint64           `json:"layers"`
		Edges    []map[string]any     `json:"edges"`
		Features map[string][]float32 `json:"features"`
	}
	for {
		resp, err := http.Get(gateway + "/sample?q=0&seed=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET /sample: %d", resp.StatusCode)
		}
		out.Layers, out.Edges, out.Features = nil, nil, nil
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(out.Layers) == 3 && len(out.Layers[1]) == 1 && len(out.Layers[2]) == 1 &&
			len(out.Features["101"]) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subgraph never materialized: %+v", out)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if out.Layers[1][0] != 100 || out.Layers[2][0] != 101 {
		t.Fatalf("layers = %v", out.Layers)
	}
	if f := out.Features["101"]; len(f) != 2 || f[0] != 5 {
		t.Fatalf("hop-2 feature = %v", f)
	}

	// Health endpoint.
	resp, err := http.Get(gateway + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// Bad requests.
	for _, path := range []string{"/sample?q=9&seed=1", "/sample?q=0&seed=x"} {
		resp, _ := http.Get(gateway + path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	var stats int64
	for _, w := range c.Samplers {
		stats += w.Stats().Admissions
	}
	if stats == 0 {
		t.Fatal("no admissions recorded across remote samplers")
	}
	fmt.Println("multi-process topology OK")
}

func TestResultCodecRoundTrip(t *testing.T) {
	res := &serving.Result{
		Layers: [][]graph.VertexID{{1}, {2, 3}, {4, 5, 6}},
		Edges: []serving.SampledEdge{
			{Hop: 0, Parent: 1, Child: 2, Ts: 10, Weight: 1.5},
			{Hop: 1, Parent: 2, Child: 4, Ts: 11},
		},
		Features: map[graph.VertexID][]float32{
			1: {1, 2}, 4: {3},
		},
		SampleMisses:  1,
		FeatureMisses: 2,
		Lookups:       3,
	}
	w := codec.NewWriter(256)
	serving.AppendResult(w, res)
	r := codec.NewReader(w.Bytes())
	got, err := serving.DecodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != 3 || got.Layers[2][2] != 6 {
		t.Fatalf("layers = %v", got.Layers)
	}
	if len(got.Edges) != 2 || got.Edges[0].Weight != 1.5 {
		t.Fatalf("edges = %v", got.Edges)
	}
	if got.Features[4][0] != 3 || got.SampleMisses != 1 || got.FeatureMisses != 2 || got.Lookups != 3 {
		t.Fatalf("fields = %+v", got)
	}
}
