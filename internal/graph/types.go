// Package graph defines the dynamic property-graph data model shared by
// every Helios component: typed vertices and edges, append-only graph
// updates, and the hash partitioning that assigns vertices to workers.
//
// Helios (PPoPP 2025, §4.2) targets append-only dynamic graphs: a vertex
// update inserts a vertex or refreshes its feature, an edge update inserts a
// new edge. Deletions never occur; stale data is reclaimed by TTL.
package graph

import "fmt"

// VertexID identifies a vertex. IDs are dense or sparse uint64s; Helios
// never interprets them beyond hashing.
type VertexID uint64

// Timestamp is an event time in nanoseconds since the epoch (or any other
// monotone unit the application chooses). TopK sampling orders edges by it.
type Timestamp int64

// VertexType and EdgeType index into a Schema's type tables.
type (
	VertexType uint16
	EdgeType   uint16
)

// Vertex is a typed vertex with an optional dense feature vector.
type Vertex struct {
	ID      VertexID
	Type    VertexType
	Feature []float32
}

// Edge is a typed, timestamped, weighted directed edge.
type Edge struct {
	Src, Dst VertexID
	Type     EdgeType
	Ts       Timestamp
	Weight   float32
}

// UpdateKind discriminates the two append-only update kinds of §4.2.
type UpdateKind uint8

const (
	// UpdateVertex inserts a new vertex or refreshes the feature of an
	// existing one.
	UpdateVertex UpdateKind = iota + 1
	// UpdateEdge inserts a new edge.
	UpdateEdge
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateVertex:
		return "vertex"
	case UpdateEdge:
		return "edge"
	default:
		return fmt.Sprintf("UpdateKind(%d)", uint8(k))
	}
}

// Update is a single append-only graph update. Exactly one of Vertex/Edge is
// meaningful, selected by Kind. Ingested is the wall-clock nanosecond the
// update entered the system, used to measure ingestion latency (Fig. 17);
// the broker offset a partition gives it is its only sequence number.
type Update struct {
	Kind     UpdateKind
	Vertex   Vertex
	Edge     Edge
	Ingested int64
	// Trace is the observability trace ID minted when the update entered
	// the system (0 = untraced); it rides through sampling so the cache
	// refresh it causes can be attributed to the originating ingest.
	Trace uint64
}

// NewVertexUpdate builds a vertex insertion/feature-refresh update.
func NewVertexUpdate(v Vertex) Update {
	return Update{Kind: UpdateVertex, Vertex: v}
}

// NewEdgeUpdate builds an edge insertion update.
func NewEdgeUpdate(e Edge) Update {
	return Update{Kind: UpdateEdge, Edge: e}
}

// String renders an update compactly for logs and tests.
func (u Update) String() string {
	switch u.Kind {
	case UpdateVertex:
		return fmt.Sprintf("V(%d type=%d dim=%d)", u.Vertex.ID, u.Vertex.Type, len(u.Vertex.Feature))
	case UpdateEdge:
		return fmt.Sprintf("E(%d->%d type=%d ts=%d)", u.Edge.Src, u.Edge.Dst, u.Edge.Type, u.Edge.Ts)
	default:
		return "Update(?)"
	}
}

// Direction selects which endpoint of an edge a one-hop query expands.
type Direction uint8

const (
	// Out expands source → destination (the OutV of Fig. 1).
	Out Direction = iota
	// In expands destination → source.
	In
)

func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Origin returns the endpoint the query keys on (the reservoir-table key
// side) and Target the sampled side, under direction d.
func (e Edge) Origin(d Direction) VertexID {
	if d == In {
		return e.Dst
	}
	return e.Src
}

// Target returns the sampled endpoint under direction d.
func (e Edge) Target(d Direction) VertexID {
	if d == In {
		return e.Src
	}
	return e.Dst
}

// EdgePolicy is the edge placement policy of §4.2.
type EdgePolicy uint8

const (
	// BySrc places an edge on the partition of its source vertex.
	BySrc EdgePolicy = iota
	// ByDest places an edge on the partition of its destination vertex.
	ByDest
	// Both replicates the edge on both partitions (undirected semantics).
	Both
)

func (p EdgePolicy) String() string {
	switch p {
	case BySrc:
		return "BySrc"
	case ByDest:
		return "ByDest"
	case Both:
		return "Both"
	default:
		return fmt.Sprintf("EdgePolicy(%d)", uint8(p))
	}
}
