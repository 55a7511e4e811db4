// Package deploy loads the shared cluster configuration used by the
// multi-process binaries (cmd/helios-broker, -sampler, -server, -frontend).
// Every process loads the same JSON file and derives the identical schema
// and decomposed query plans, so no runtime plan distribution is needed —
// Helios queries are fixed at deployment time because the GNN model's
// sampling pattern is fixed by training (§1).
package deploy

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"helios/internal/graph"
	"helios/internal/query"
)

// File is the on-disk JSON configuration.
type File struct {
	// Samplers (M) and Servers (N).
	Samplers int `json:"samplers"`
	Servers  int `json:"servers"`
	// Replicas is how many interchangeable serving workers cover each
	// serving partition (the frontend fails over between them). 0 or 1
	// means no replication.
	Replicas int `json:"replicas,omitempty"`
	// VertexTypes declares the schema's vertex type names in ID order.
	VertexTypes []string `json:"vertexTypes"`
	// EdgeTypes declares typed edges.
	EdgeTypes []EdgeType `json:"edgeTypes"`
	// Queries are DSL strings (Fig. 1 syntax); query ID = index.
	Queries []string `json:"queries"`
	// TTLSeconds expires stale state; 0 disables.
	TTLSeconds int `json:"ttlSeconds"`
	// Overload is the deployment's admission-control policy, the one place
	// the role binaries take it from.
	Overload OverloadFile `json:"overload,omitempty"`
}

// OverloadFile is the deployment-wide overload policy (see
// internal/overload): end-to-end deadlines, admission bounds, ingestion
// backpressure, and graceful degradation. Zero values disable each bound.
type OverloadFile struct {
	// RequestTimeoutMS is the frontend's end-to-end deadline budget per
	// sampling request, in milliseconds.
	RequestTimeoutMS int `json:"requestTimeoutMs,omitempty"`
	// MaxInflight / MaxQueue bound admitted and admission-queued sampling
	// requests at the frontend and each serving worker.
	MaxInflight int `json:"maxInflight,omitempty"`
	MaxQueue    int `json:"maxQueue,omitempty"`
	// MaxIngestLag sheds ingestion once a partition's unconsumed updates
	// backlog exceeds this bound (enforced at the frontend and the broker).
	MaxIngestLag int64 `json:"maxIngestLag,omitempty"`
	// Degrade lets saturated serving workers answer from the cache inline
	// (results tagged degraded) instead of shedding outright.
	Degrade bool `json:"degrade,omitempty"`
}

// EdgeType is one schema edge declaration.
type EdgeType struct {
	Name string `json:"name"`
	Src  string `json:"src"`
	Dst  string `json:"dst"`
}

// Config is the derived runtime configuration.
type Config struct {
	File    File
	Schema  *graph.Schema
	Queries []query.Query
	Plans   []*query.Plan
	TTL     time.Duration
}

// Load reads and derives a configuration from path.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return Parse(data)
}

// Parse derives a configuration from JSON bytes.
func Parse(data []byte) (*Config, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("deploy: parse config: %w", err)
	}
	if f.Samplers < 1 || f.Servers < 1 {
		return nil, fmt.Errorf("deploy: samplers and servers must be ≥ 1")
	}
	if f.Replicas < 0 {
		return nil, fmt.Errorf("deploy: replicas must be ≥ 0")
	}
	if f.Replicas == 0 {
		f.Replicas = 1
	}
	if len(f.Queries) == 0 {
		return nil, fmt.Errorf("deploy: at least one query is required")
	}
	cfg := &Config{File: f, Schema: graph.NewSchema(), TTL: time.Duration(f.TTLSeconds) * time.Second}
	for _, name := range f.VertexTypes {
		cfg.Schema.AddVertexType(name)
	}
	for _, et := range f.EdgeTypes {
		src, ok := cfg.Schema.VertexTypeID(et.Src)
		if !ok {
			return nil, fmt.Errorf("deploy: edge %q references unknown vertex type %q", et.Name, et.Src)
		}
		dst, ok := cfg.Schema.VertexTypeID(et.Dst)
		if !ok {
			return nil, fmt.Errorf("deploy: edge %q references unknown vertex type %q", et.Name, et.Dst)
		}
		cfg.Schema.AddEdgeType(et.Name, src, dst)
	}
	var queries []query.Query
	for i, src := range f.Queries {
		q, err := query.Parse(src, cfg.Schema)
		if err != nil {
			return nil, fmt.Errorf("deploy: query %d: %w", i, err)
		}
		q.Name = fmt.Sprintf("q%d", i)
		queries = append(queries, q)
	}
	if err := cfg.register(queries); err != nil {
		return nil, err
	}
	return cfg, nil
}

// New derives a configuration from an already-built schema and compiled
// queries: Parse for callers that hold no JSON file (the embedded Service,
// experiments, tests). Sizes below 1 default to 1.
func New(schema *graph.Schema, queries []query.Query, samplers, servers, replicas int) (*Config, error) {
	if schema == nil {
		return nil, fmt.Errorf("deploy: schema is required")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("deploy: at least one query is required")
	}
	cfg := &Config{File: File{Samplers: max(samplers, 1), Servers: max(servers, 1), Replicas: max(replicas, 1)}, Schema: schema}
	if err := cfg.register(queries); err != nil {
		return nil, err
	}
	return cfg, nil
}

// register decomposes queries into plans; query ID = index.
func (c *Config) register(queries []query.Query) error {
	for i, q := range queries {
		plan, err := query.Decompose(query.ID(i), q, c.Schema)
		if err != nil {
			return fmt.Errorf("deploy: query %d: %w", i, err)
		}
		c.Queries = append(c.Queries, q)
		c.Plans = append(c.Plans, plan)
	}
	return nil
}

// EdgeRouting returns, per edge type, whether Out/In-keyed routing is
// needed by any registered hop (the frontend's update routing rule).
func (c *Config) EdgeRouting() map[graph.EdgeType][2]bool {
	dirs := make(map[graph.EdgeType][2]bool)
	for _, plan := range c.Plans {
		for _, oh := range plan.OneHops {
			d := dirs[oh.Edge]
			if oh.Dir == graph.In {
				d[1] = true
			} else {
				d[0] = true
			}
			dirs[oh.Edge] = d
		}
	}
	return dirs
}
