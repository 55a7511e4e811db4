package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"helios/internal/graph"
	"helios/internal/workload"
)

// edgeKey identifies one sampled relation of a result, the unit results are
// compared in.
type edgeKey struct {
	Hop    int    `json:"hop"`
	Parent uint64 `json:"parent"`
	Child  uint64 `json:"child"`
	Ts     int64  `json:"ts"`
}

func sortEdges(es []edgeKey) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		switch {
		case a.Hop != b.Hop:
			return a.Hop < b.Hop
		case a.Parent != b.Parent:
			return a.Parent < b.Parent
		case a.Ts != b.Ts:
			return a.Ts < b.Ts
		default:
			return a.Child < b.Child
		}
	})
}

// refEdge is one reference-graph neighbour.
type refEdge struct {
	dst graph.VertexID
	ts  graph.Timestamp
}

// logEdge is what the reference graph remembers about every edge it was ever
// given, indexed by timestamp (generated streams number their edges 1, 2, …).
type logEdge struct {
	src, dst graph.VertexID
	typ      graph.EdgeType
}

// refGraph is the oracle: a plain in-memory copy of what a TopK deployment
// must converge to — per hop and source vertex the `fanout` edges with the
// largest timestamps, and the latest feature of every vertex. It is not
// safe for concurrent use; the load generator guards it with its own lock.
type refGraph struct {
	hopEdge []graph.EdgeType
	fanout  []int
	// adj[h][src] holds the newest fanout[h] edges of hop h's edge type.
	adj  []map[graph.VertexID][]refEdge
	feat map[graph.VertexID][]float32
	// edges is every edge applied, by timestamp, for validity checks of
	// results taken while updates are still in flight.
	edges []logEdge
}

// newRefGraph builds an empty oracle for a chain query over schema-ordered
// edge types (edgeTypes[name] is the deployment's edge type ID).
func newRefGraph(hops []workload.QueryHopSpec, edgeTypes map[string]graph.EdgeType) *refGraph {
	g := &refGraph{feat: make(map[graph.VertexID][]float32)}
	for _, h := range hops {
		g.hopEdge = append(g.hopEdge, edgeTypes[h.Edge])
		g.fanout = append(g.fanout, h.Fanout)
		g.adj = append(g.adj, make(map[graph.VertexID][]refEdge))
	}
	return g
}

// apply folds one update into the reference.
func (g *refGraph) apply(u graph.Update) {
	switch u.Kind {
	case graph.UpdateVertex:
		g.feat[u.Vertex.ID] = u.Vertex.Feature
	case graph.UpdateEdge:
		e := u.Edge
		for int(e.Ts) >= len(g.edges) {
			g.edges = append(g.edges, logEdge{})
		}
		g.edges[e.Ts] = logEdge{src: e.Src, dst: e.Dst, typ: e.Type}
		for h, typ := range g.hopEdge {
			if typ != e.Type {
				continue
			}
			cur := append(g.adj[h][e.Src], refEdge{dst: e.Dst, ts: e.Ts})
			if len(cur) > g.fanout[h] {
				oldest := 0
				for i := range cur {
					if cur[i].ts < cur[oldest].ts {
						oldest = i
					}
				}
				cur[oldest] = cur[len(cur)-1]
				cur = cur[:len(cur)-1]
			}
			g.adj[h][e.Src] = cur
		}
	}
}

// expected returns the exact K-hop result for seed: its sampled relations in
// canonical order and the feature of every vertex in the tree that has one.
func (g *refGraph) expected(seed graph.VertexID) ([]edgeKey, map[uint64][]float32) {
	var edges []edgeKey
	feats := make(map[uint64][]float32)
	note := func(v graph.VertexID) {
		if f, ok := g.feat[v]; ok {
			feats[uint64(v)] = f
		}
	}
	note(seed)
	frontier := []graph.VertexID{seed}
	for h := range g.hopEdge {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, e := range g.adj[h][v] {
				edges = append(edges, edgeKey{Hop: h, Parent: uint64(v), Child: uint64(e.dst), Ts: int64(e.ts)})
				next = append(next, e.dst)
				note(e.dst)
			}
		}
		frontier = next
	}
	sortEdges(edges)
	return edges, feats
}

// sampleResponse is the gateway's GET /sample body. Features stay raw until
// a full comparison needs them: parsing ~2 800 floats per response would
// otherwise be the generator's largest cost.
type sampleResponse struct {
	Layers   [][]uint64      `json:"layers"`
	Edges    []edgeKey       `json:"edges"`
	Features json.RawMessage `json:"features"`
}

// checkValid is the check every response gets, including those taken while
// updates are in flight, when the exact answer is not knowable: the tree is
// well-formed (each layer is the previous hop's children, no parent exceeds
// its fan-out, every hop-h parent was sampled at hop h-1) and every relation
// in it is an edge the generator really sent, of the hop's edge type.
func (g *refGraph) checkValid(seed graph.VertexID, r *sampleResponse) error {
	if len(r.Layers) != len(g.hopEdge)+1 {
		return fmt.Errorf("%d layers, want %d", len(r.Layers), len(g.hopEdge)+1)
	}
	if len(r.Layers[0]) != 1 || r.Layers[0][0] != uint64(seed) {
		return fmt.Errorf("layer 0 is %v, want [%d]", r.Layers[0], seed)
	}
	// A vertex sampled twice at one hop is expanded twice at the next, so a
	// parent's allowance is its multiplicity times the fan-out.
	allowance := make(map[[2]uint64]int)
	for h := range g.hopEdge {
		for _, v := range r.Layers[h] {
			allowance[[2]uint64{uint64(h), v}] += g.fanout[h]
		}
	}
	perHop := make([]int, len(g.hopEdge))
	for _, e := range r.Edges {
		if e.Hop < 0 || e.Hop >= len(g.hopEdge) {
			return fmt.Errorf("edge at hop %d", e.Hop)
		}
		if e.Ts <= 0 || e.Ts >= int64(len(g.edges)) {
			return fmt.Errorf("hop %d relation %d->%d@%d was never sent", e.Hop, e.Parent, e.Child, e.Ts)
		}
		if le := g.edges[e.Ts]; uint64(le.src) != e.Parent || uint64(le.dst) != e.Child || le.typ != g.hopEdge[e.Hop] {
			return fmt.Errorf("hop %d relation %d->%d@%d was never sent", e.Hop, e.Parent, e.Child, e.Ts)
		}
		perHop[e.Hop]++
		k := [2]uint64{uint64(e.Hop), e.Parent}
		if allowance[k]--; allowance[k] < 0 {
			return fmt.Errorf("hop %d parent %d is unsampled or exceeds fan-out %d", e.Hop, e.Parent, g.fanout[e.Hop])
		}
	}
	for h := range g.hopEdge {
		if len(r.Layers[h+1]) != perHop[h] {
			return fmt.Errorf("layer %d has %d vertices for %d hop-%d relations", h+1, len(r.Layers[h+1]), perHop[h], h)
		}
	}
	return nil
}

// checkExact compares a response with the oracle's answer for seed:
// identical relations (as a multiset) and identical features.
func (g *refGraph) checkExact(seed graph.VertexID, r *sampleResponse) error {
	if err := g.checkValid(seed, r); err != nil {
		return err
	}
	want, wantFeats := g.expected(seed)
	got := append([]edgeKey(nil), r.Edges...)
	sortEdges(got)
	if len(got) != len(want) {
		return fmt.Errorf("seed %d: %d relations, want %d", seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("seed %d: relation %d is %+v, want %+v", seed, i, got[i], want[i])
		}
	}
	gotFeats, err := parseFeatures(r.Features)
	if err != nil {
		return err
	}
	if len(gotFeats) != len(wantFeats) {
		return fmt.Errorf("seed %d: %d features, want %d", seed, len(gotFeats), len(wantFeats))
	}
	for v, wf := range wantFeats {
		gf, ok := gotFeats[v]
		if !ok || len(gf) != len(wf) {
			return fmt.Errorf("seed %d: feature of %d missing or wrong length", seed, v)
		}
		for i := range wf {
			if gf[i] != wf[i] {
				return fmt.Errorf("seed %d: feature of %d differs at %d", seed, v, i)
			}
		}
	}
	return nil
}

// parseFeatures decodes the gateway's features object (vertex ID strings to
// float arrays).
func parseFeatures(raw []byte) (map[uint64][]float32, error) {
	var byName map[string][]float32
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &byName); err != nil {
			return nil, fmt.Errorf("features: %w", err)
		}
	}
	out := make(map[uint64][]float32, len(byName))
	for k, f := range byName {
		v, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("feature key %q: %w", k, err)
		}
		out[v] = f
	}
	return out, nil
}
