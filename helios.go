// Package helios is the public API of the Helios reproduction: an efficient
// distributed dynamic graph sampling service for online GNN inference
// (PPoPP 2025).
//
// A Service runs an in-process cluster of M sampling workers and N serving
// workers connected by a partitioned log broker. Graph updates stream in
// through Ingest*; registered K-hop sampling queries are pre-sampled
// event-driven as updates arrive (§5); inference requests are answered from
// each serving worker's query-aware sample cache with a fixed number of
// local lookups (§6).
//
// Minimal usage:
//
//	schema := helios.NewSchema()
//	user := schema.AddVertexType("User")
//	item := schema.AddVertexType("Item")
//	schema.AddEdgeType("Click", user, item)
//	schema.AddEdgeType("CoPurchase", item, item)
//
//	svc, err := helios.New(helios.Options{
//		Samplers: 2,
//		Servers:  2,
//		Schema:   schema,
//		Queries: []string{
//			`g.V('User').outV('Click').sample(2).by('Random')
//			  .outV('CoPurchase').sample(2).by('TopK')`,
//		},
//	})
//	defer svc.Close()
//
//	svc.IngestEdge(helios.Edge{Src: 1, Dst: 1001, Type: 0, Ts: 1})
//	svc.Sync(time.Second)
//	res, err := svc.Sample(0, 1)
package helios

import (
	"fmt"
	"time"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/gnn"
	"helios/internal/graph"
	"helios/internal/kvstore"
	"helios/internal/query"
	"helios/internal/sampler"
	"helios/internal/serving"
)

// Re-exported core types, so applications only import this package.
type (
	// Schema declares vertex and edge types.
	Schema = graph.Schema
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Timestamp is an edge event time.
	Timestamp = graph.Timestamp
	// Vertex is a typed vertex with a feature vector.
	Vertex = graph.Vertex
	// Edge is a typed, timestamped, weighted edge.
	Edge = graph.Edge
	// Update is an append-only graph update.
	Update = graph.Update
	// Query is a K-hop sampling query.
	Query = query.Query
	// QueryID identifies a registered query (its index in Options.Queries).
	QueryID = query.ID
	// Result is a complete K-hop sampling result.
	Result = serving.Result
	// SampledEdge is one sampled relation inside a Result.
	SampledEdge = serving.SampledEdge
)

// NewSchema returns an empty schema.
func NewSchema() *Schema { return graph.NewSchema() }

// ParseQuery parses the textual query DSL of Fig. 1 against a schema.
func ParseQuery(src string, s *Schema) (Query, error) { return query.Parse(src, s) }

// Options configures a Service.
type Options struct {
	// Samplers (M) and Servers (N) size the cluster; both default to 1.
	Samplers, Servers int
	// ServerReplicas runs this many replicas of each serving partition
	// (requests round-robin among them); default 1.
	ServerReplicas int
	// Schema is required.
	Schema *Schema
	// Queries are DSL strings registered in order; query ID = index.
	Queries []string
	// CompiledQueries are appended after Queries for callers using the
	// builder API.
	CompiledQueries []Query
	// SampleThreads / ServeThreads size the hot-path worker pools (the
	// scale-up knobs of Fig. 13(a)/14(a)). Zero uses defaults.
	SampleThreads, ServeThreads int
	// CacheDir enables the hybrid memory/disk cache mode: serving worker i
	// spills to CacheDir/sew-<i>. Empty keeps caches in memory.
	CacheDir string
	// CacheMemBudget bounds each serving cache's memory before spilling
	// (bytes); 0 uses the kvstore default.
	CacheMemBudget int64
	// TTL expires reservoirs, features and cache entries; 0 disables.
	TTL time.Duration
	// BrokerDir enables durable broker segments.
	BrokerDir string
	// Seed drives randomized sampling.
	Seed int64
}

// Service is a running Helios deployment.
type Service struct {
	c       *cluster.Local
	queries []Query
}

// New builds and starts a Service.
func New(opts Options) (*Service, error) {
	if opts.Schema == nil {
		return nil, fmt.Errorf("helios: Schema is required")
	}
	var queries []Query
	for _, src := range opts.Queries {
		q, err := query.Parse(src, opts.Schema)
		if err != nil {
			return nil, err
		}
		queries = append(queries, q)
	}
	queries = append(queries, opts.CompiledQueries...)
	cfg, err := deploy.New(opts.Schema, queries, opts.Samplers, opts.Servers, opts.ServerReplicas)
	if err != nil {
		return nil, err
	}
	cfg.TTL = opts.TTL
	// Brokers stays 0: the embedded service shares one in-process broker.
	var o cluster.Options
	o.Broker.Log.Dir = opts.BrokerDir
	o.Sampler.Worker = sampler.Config{SampleThreads: opts.SampleThreads, Seed: opts.Seed}
	o.Server.Worker = serving.Config{
		ServeThreads: opts.ServeThreads,
		Store:        kvstore.Options{Dir: opts.CacheDir, MemBudgetBytes: opts.CacheMemBudget},
	}
	c, err := cluster.Boot(cfg, o)
	if err != nil {
		return nil, err
	}
	return &Service{c: c, queries: queries}, nil
}

// Queries returns the registered queries in ID order.
func (s *Service) Queries() []Query { return s.queries }

// Ingest streams one update into the service. Ordering within a vertex is
// the ingestion order; visibility is eventually consistent (§6).
func (s *Service) Ingest(u Update) error { return s.c.Ingest(u) }

// IngestEdge streams an edge insertion.
func (s *Service) IngestEdge(e Edge) error {
	return s.c.Ingest(graph.NewEdgeUpdate(e))
}

// IngestVertex streams a vertex insertion or feature refresh.
func (s *Service) IngestVertex(v Vertex) error {
	return s.c.Ingest(graph.NewVertexUpdate(v))
}

// Sample assembles the K-hop sampling result for seed under the registered
// query, from the owning serving worker's local cache.
func (s *Service) Sample(q QueryID, seed VertexID) (*Result, error) {
	return s.c.Sample(q, seed)
}

// Sync blocks until all in-flight updates have propagated into the serving
// caches (or the timeout expires). Useful for tests and read-after-write
// call sites; online serving does not need it.
func (s *Service) Sync(timeout time.Duration) error {
	return s.c.WaitQuiesce(timeout)
}

// Stats aggregates worker statistics.
type Stats struct {
	Ingested       int64
	Sampler        []sampler.Stats
	Serving        []serving.Stats
	CacheBytes     int64
	SnapshotsSent  int64
	FeaturesSent   int64
	ServedRequests int64
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{Ingested: s.c.IngestedRecords()}
	for _, w := range s.c.Samplers {
		ws := w.Stats()
		st.Sampler = append(st.Sampler, ws)
		st.SnapshotsSent += ws.SnapshotsSent
		st.FeaturesSent += ws.FeaturesSent
	}
	for _, w := range s.c.Servers {
		ws := w.Stats()
		st.Serving = append(st.Serving, ws)
		st.CacheBytes += ws.CacheBytes
		st.ServedRequests += ws.Served
	}
	return st
}

// EnableCheckpoints periodically checkpoints every sampling worker into
// dir as sampler-<i>.ckpt (§4.1 fault tolerance). Restores happen when a
// replacement worker loads the file (see sampler.Worker.RestoreFile and
// cmd/helios-sampler's -snapshot-dir flag).
func (s *Service) EnableCheckpoints(dir string, interval time.Duration) error {
	return s.c.EnableCheckpoints(dir, interval)
}

// Tree is a sampled neighbourhood prepared for GNN inference.
type Tree = gnn.Tree

// TreeFromResult converts a sampling result into the model input shape:
// distinct vertices per depth with child links and dim-sized features
// (missing features are zero-filled).
func TreeFromResult(res *Result, dim int) *Tree {
	edges := make([]gnn.HopEdge, len(res.Edges))
	for i, e := range res.Edges {
		edges[i] = gnn.HopEdge{Hop: e.Hop, Parent: e.Parent, Child: e.Child}
	}
	return gnn.BuildTree(res.Layers, edges, res.Features, dim)
}

// Cluster exposes the underlying cluster for benchmarks and tools that
// need worker-level access.
func (s *Service) Cluster() *cluster.Local { return s.c }

// Close stops all workers and the broker.
func (s *Service) Close() { s.c.Close() }
