package frontend

import (
	"fmt"
	"sync/atomic"

	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/deploy"
	"helios/internal/graph"
	"helios/internal/obs"
)

// Router is the update half of the front-end: it stamps each graph update
// and appends it to the sampling partitions that need it — the owner of a
// vertex, or the owners of an edge's endpoints for the directions some
// registered hop samples (§4.1). The Frontend routes through one, and so
// does the in-process cluster, which has no gateway in front of its broker.
type Router struct {
	part   graph.Partitioner // sampling workers
	dirs   map[graph.EdgeType][2]bool
	clk    clock.Clock
	seq    atomic.Uint64
	append func(partition int, key uint64, payload []byte, trace uint64) error

	// Updates counts updates accepted for routing; an edge no registered
	// query samples is dropped here and not counted.
	Updates obs.Counter
}

// NewRouter routes cfg's updates through append, which publishes one
// encoded update to one partition of the updates topic.
func NewRouter(cfg *deploy.Config, clk clock.Clock, append func(partition int, key uint64, payload []byte, trace uint64) error) *Router {
	return &Router{
		part:   graph.NewPartitioner(cfg.File.Samplers),
		dirs:   cfg.EdgeRouting(),
		clk:    clk,
		append: append,
	}
}

// Ingest stamps and routes one update. The update stays untraced (unless
// the caller pre-assigned u.Trace), so bulk ingestion pays no tracing
// cost downstream. Safe for concurrent use: every update gets its own Seq.
func (r *Router) Ingest(u graph.Update) error {
	u.Seq = r.seq.Add(1) - 1
	u.Ingested = r.clk.Now().UnixNano()
	payload := codec.EncodeUpdate(u)
	switch u.Kind {
	case graph.UpdateVertex:
		r.Updates.Inc()
		return r.append(r.part.Of(u.Vertex.ID), uint64(u.Vertex.ID), payload, u.Trace)
	case graph.UpdateEdge:
		d, relevant := r.dirs[u.Edge.Type]
		if !relevant {
			return nil
		}
		r.Updates.Inc()
		sent := -1
		if d[0] {
			sent = r.part.Of(u.Edge.Src)
			if err := r.append(sent, uint64(u.Edge.Src), payload, u.Trace); err != nil {
				return err
			}
		}
		if d[1] {
			if p := r.part.Of(u.Edge.Dst); p != sent {
				if err := r.append(p, uint64(u.Edge.Src), payload, u.Trace); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("frontend: unknown update kind %d", u.Kind)
	}
}
