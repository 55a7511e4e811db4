// Package graphdb implements the baseline Helios is evaluated against: a
// distributed graph database in the style of TigerGraph/NebulaGraph (§3,
// §7.1) used as a dynamic graph sampling service.
//
// The baseline deliberately reproduces the two behaviours the paper
// attributes to graph databases:
//
//   - Ad-hoc sampling: every query traverses the *full* neighbour list of
//     each visited vertex at request time (TopK must scan and order all
//     edges), so query cost is data-dependent and skew produces long tails
//     (Fig. 4(b), 4(c)).
//   - Strong consistency: updates take per-shard write locks that exclude
//     concurrent readers, coupling ingestion and serving (Fig. 11, 12).
//
// Multi-hop queries over a distributed deployment add one batched RPC round
// per hop per partition (Fig. 4(d)) — see dist.go.
package graphdb

import (
	"math/rand"
	"sync"

	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/sampling"
)

// StoreOptions configures a store partition.
type StoreOptions struct {
	// Shards is the lock-striping factor; 0 defaults to 16.
	Shards int
}

// Store is one partition of the baseline graph database: adjacency lists in
// arrival order (both directions) plus vertex features, guarded by striped
// RW locks (writes are strongly consistent and exclude readers).
type Store struct {
	shards []storeShard

	// Edges/Vertices count stored elements; Scanned counts neighbour
	// entries visited by queries (the Fig. 4(c) x-axis).
	Edges    obs.Counter
	Vertices obs.Counter
	Scanned  obs.Counter
}

type adjKey struct {
	v   graph.VertexID
	et  graph.EdgeType
	dir graph.Direction
}

type storeShard struct {
	mu   sync.RWMutex
	adj  map[adjKey][]sampling.AdhocEdge
	feat map[graph.VertexID][]float32
}

// NewStore returns an empty partition.
func NewStore(opts StoreOptions) *Store {
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	s := &Store{shards: make([]storeShard, opts.Shards)}
	for i := range s.shards {
		s.shards[i].adj = make(map[adjKey][]sampling.AdhocEdge)
		s.shards[i].feat = make(map[graph.VertexID][]float32)
	}
	return s
}

func (s *Store) shardOf(v graph.VertexID) *storeShard {
	return &s.shards[graph.Hash64(uint64(v))%uint64(len(s.shards))]
}

// ApplyUpdate ingests one update with strong consistency (the write lock
// excludes all concurrent reads of the shard).
func (s *Store) ApplyUpdate(u graph.Update) {
	switch u.Kind {
	case graph.UpdateVertex:
		sh := s.shardOf(u.Vertex.ID)
		feat := make([]float32, len(u.Vertex.Feature))
		copy(feat, u.Vertex.Feature)
		sh.mu.Lock()
		if _, existed := sh.feat[u.Vertex.ID]; !existed {
			s.Vertices.Inc()
		}
		sh.feat[u.Vertex.ID] = feat
		sh.mu.Unlock()
	case graph.UpdateEdge:
		e := u.Edge
		out := s.shardOf(e.Src)
		out.mu.Lock()
		k := adjKey{v: e.Src, et: e.Type, dir: graph.Out}
		out.adj[k] = append(out.adj[k], sampling.AdhocEdge{Neighbor: e.Dst, Ts: e.Ts, Weight: e.Weight})
		out.mu.Unlock()
		in := s.shardOf(e.Dst)
		in.mu.Lock()
		k = adjKey{v: e.Dst, et: e.Type, dir: graph.In}
		in.adj[k] = append(in.adj[k], sampling.AdhocEdge{Neighbor: e.Src, Ts: e.Ts, Weight: e.Weight})
		in.mu.Unlock()
		s.Edges.Inc()
	}
}

// SampleNeighbors executes one ad-hoc one-hop sampling for v: it visits the
// complete neighbour list under the read lock (the data-dependent cost) and
// returns up to fanout samples. scanned reports the neighbours visited.
func (s *Store) SampleNeighbors(v graph.VertexID, et graph.EdgeType, dir graph.Direction,
	strat sampling.Strategy, fanout int, rng *rand.Rand) (samples []sampling.AdhocEdge, scanned int) {
	sh := s.shardOf(v)
	sh.mu.RLock()
	neighbors := sh.adj[adjKey{v: v, et: et, dir: dir}]
	samples = sampling.AdhocSample(strat, neighbors, fanout, rng)
	scanned = len(neighbors)
	sh.mu.RUnlock()
	s.Scanned.Add(int64(scanned))
	return samples, scanned
}

// Degree returns the neighbour count of v.
func (s *Store) Degree(v graph.VertexID, et graph.EdgeType, dir graph.Direction) int {
	sh := s.shardOf(v)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.adj[adjKey{v: v, et: et, dir: dir}])
}

// Feature returns a copy of v's feature, or nil.
func (s *Store) Feature(v graph.VertexID) []float32 {
	sh := s.shardOf(v)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f := sh.feat[v]
	if f == nil {
		return nil
	}
	out := make([]float32, len(f))
	copy(out, f)
	return out
}
