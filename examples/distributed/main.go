// Distributed topology demo: boots the exact multi-process deployment the
// cmd/ binaries run — three replicated brokers (replica 0 hosting the
// coordinator), sampling and serving workers on their own broker
// connections, serving RPC endpoints, and the HTTP frontend — inside one
// process through cluster.Boot, the same role constructors the binaries
// call, so you can watch the whole §4.1 architecture work end to end
// without juggling eight terminals. The drills that break it — a broker
// endpoint restart, a leader failover, a request storm — are tests in
// internal/frontend (TestChaos*).
//
// (To run it as real separate processes, see the README's
// "Multi-process deployment" section.)
//
// Run with: go run ./examples/distributed
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"helios/internal/cluster"
	"helios/internal/deploy"
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

// post drives an ingest until the gateway accepts it: a 202 means the
// broker append returned, which under replication means a quorum holds the
// record.
func post(path string, body map[string]any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	await("POST "+path+" never accepted", func() bool {
		resp, err := http.Post(gateway+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusAccepted
	})
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

func main() {
	cfg, err := deploy.Parse([]byte(clusterConfig))
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.Boot(cfg, cluster.Options{Brokers: replicas})
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

	post("/ingest/vertex", map[string]any{"id": 1, "type": "User", "feature": []float32{1}})
	for i := 0; i < 3; i++ {
		post("/ingest/vertex", map[string]any{"id": 100 + i, "type": "Item", "feature": []float32{float32(i)}})
		post("/ingest/edge", map[string]any{"src": 1, "dst": 100 + i, "type": "Click", "ts": i + 1})
	}
	post("/ingest/edge", map[string]any{"src": 100, "dst": 102, "type": "CoPurchase", "ts": 10})

	// Poll until the pre-sampled subgraph materializes across the
	// distributed pipeline.
	var out struct {
		Layers [][]uint64 `json:"layers"`
	}
	await("subgraph never materialized", func() bool {
		resp, err := http.Get(gateway + "/sample?q=0&seed=1")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		out.Layers = nil
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode == http.StatusOK && len(out.Layers) == 3 && len(out.Layers[1]) == 3
	})
	fmt.Printf("sample for seed 1: hop-1=%v hop-2=%v\n", out.Layers[1], out.Layers[2])
	fmt.Println("distributed topology demo complete")
}
