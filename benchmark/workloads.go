package main

import (
	"fmt"

	"helios/internal/deploy"
	"helios/internal/graph"
	"helios/internal/workload"
)

// Sizes. The dataset is workload.INTER() (avg out-degree 95, Zipf
// supernodes) scaled so a preload is ≈ 240 k updates; ingest_bulk loads 2.5
// times that. sizeShrink scales every workload's stream equally: the
// driver's time cap (4 + 22 × 4 runs in 3 420 s, three set-ups per run)
// leaves ~30 s per run, and with every default this host ingests ~7.5 k
// updates/s, so the full sizes do not fit.
const (
	interScale = 0.25
	bulkFactor = 2.5
	sizeShrink = 0.1
)

var (
	twoHop = []workload.QueryHopSpec{{Edge: "Has", Fanout: 25}, {Edge: "Knows", Fanout: 10}}
	oneHop = []workload.QueryHopSpec{{Edge: "Has", Fanout: 8}}
)

// updatePath is how a client's updates enter the system.
type updatePath int

const (
	// viaGateway posts each update to POST /ingest/edge, the application path.
	viaGateway updatePath = iota
	// viaStream hands each update to a frontend.Frontend used as a producer
	// library over a broker connection, the helios-replay route.
	viaStream
)

// workloadDef is one named traffic mix. Every workload has the same shape —
// bulk-load a stream into an empty cluster, verify, then drive two
// connections for the measured phase — so every end-to-end metric is
// defined on every workload; what differs is which layer the mix loads.
type workloadDef struct {
	name string
	why  string
	// hops is the registered TopK query.
	hops []workload.QueryHopSpec
	// loadFactor multiplies the preload stream.
	loadFactor float64
	// Connection A is always a closed-loop query client that aims at the
	// oldest outstanding marker's seed. Connection B also issues closed-loop
	// queries when bQueries is set, and sends the update schedule below.
	bQueries bool
	path     updatePath
	// rate is B's open-loop update rate per second; every markerEvery-th
	// update is a marker (1 = markers only, no background stream).
	rate        float64
	markerEvery int
	// exactEvery > 0 compares every n-th response for a settled seed with
	// the oracle's exact answer; it is only sound when the markers are the
	// only updates in flight.
	exactEvery int
}

var workloads = []workloadDef{
	{
		name: "serve_2hop",
		why:  "read-dominated: 2 closed-loop clients on Forum-Has(25)-Knows(10), 200 marker updates/s; serving assembly, kvstore gets, result codec and gateway JSON do the work",
		hops: twoHop, loadFactor: 1, bQueries: true, path: viaGateway, rate: 200, markerEvery: 1, exactEvery: 64,
	},
	{
		name: "serve_1hop",
		why:  "same clients on Forum-Has(8): assembly is ~1/30 of the work, so per-request fixed cost (gateway, frontend, rpc, actor hand-off) dominates; an assembly gain must not move it",
		// The frontend drops the Knows edges (63 % of the stream) unrouted, so
		// this load is sized like ingest_bulk's to last long enough to time.
		hops: oneHop, loadFactor: bulkFactor, bQueries: true, path: viaGateway, rate: 200, markerEvery: 1, exactEvery: 64,
	},
	{
		name: "ingest_bulk",
		why:  "write-dominated: 2.5x bulk load down the stream path, then one query client beside a 1500/s replay; mq, sampler, sampling, wire and cache apply do the work",
		hops: twoHop, loadFactor: bulkFactor, path: viaStream, rate: 1500, markerEvery: 8,
	},
	{
		name: "mixed_2hop",
		why:  "writes beside reads on one cache: one query client and 1000 updates/s through the gateway; shows a read-side gain that slows applies, or the reverse",
		hops: twoHop, loadFactor: 1, path: viaGateway, rate: 1000, markerEvery: 5,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// dataset is everything a run derives from its seed before the clock
// starts: the deployment configuration, the preload stream split between the
// two producers, the continuing stream, and the vertices markers draw from.
type dataset struct {
	cfgJSON []byte
	cfg     *deploy.Config
	hops    []workload.QueryHopSpec
	// preload is the bulk-load stream in generation order; halves splits it
	// by source vertex so each producer keeps per-source order.
	preload []graph.Update
	halves  [2][]graph.Update
	// tail continues the stream past the preload (edges only).
	tail []graph.Update
	// seeds are the query-seed vertices; targets the first hop's far side.
	seeds, targets []graph.VertexID
	markerEdge     graph.EdgeType
	edgeTypes      map[string]graph.EdgeType
}

// buildDataset generates the streams for one run. scale sizes the preload;
// tailN is how many continuing updates the measured phase may need.
func buildDataset(hops []workload.QueryHopSpec, scale float64, tailN int, seed int64) (*dataset, error) {
	spec := workload.INTER().Scale(scale)
	spec.Seed = seed
	preloadN, edgesN := 0, 0
	for _, v := range spec.Vertices {
		preloadN += v.Count
	}
	for _, e := range spec.Edges {
		edgesN += e.Count
	}
	preloadN += edgesN

	// Grow every edge type by the same factor so the generator runs past the
	// preload with an unchanged type mix.
	ext := spec.Scale(1)
	grow := 1 + float64(tailN)/float64(edgesN) + 0.01
	total := 0
	for i := range ext.Edges {
		ext.Edges[i].Count = int(float64(ext.Edges[i].Count)*grow) + 1
		total += ext.Edges[i].Count
	}
	if total-edgesN < tailN {
		return nil, fmt.Errorf("dataset: tail of %d does not fit", tailN)
	}
	gen, err := workload.NewGenerator(ext)
	if err != nil {
		return nil, err
	}

	d := &dataset{hops: hops, cfgJSON: deployJSON(spec, hops), edgeTypes: make(map[string]graph.EdgeType)}
	if d.cfg, err = deploy.Parse(d.cfgJSON); err != nil {
		return nil, err
	}
	for _, e := range spec.Edges {
		d.edgeTypes[e.Type], _ = d.cfg.Schema.EdgeTypeID(e.Type)
	}
	d.markerEdge = d.edgeTypes[hops[0].Edge]
	targetType := ""
	for _, e := range spec.Edges {
		if e.Type == hops[0].Edge {
			targetType = e.Dst
		}
	}
	for ti, v := range spec.Vertices {
		for i := 0; i < v.Count; i++ {
			switch v.Type {
			case spec.QuerySeed:
				d.seeds = append(d.seeds, workload.VertexIDFor(ti, i))
			case targetType:
				d.targets = append(d.targets, workload.VertexIDFor(ti, i))
			}
		}
	}

	d.preload = make([]graph.Update, 0, preloadN)
	d.tail = make([]graph.Update, 0, tailN)
	for len(d.preload) < preloadN || len(d.tail) < tailN {
		u, ok := gen.Next()
		if !ok {
			return nil, fmt.Errorf("dataset: generator ended after %d updates", len(d.preload)+len(d.tail))
		}
		if len(d.preload) < preloadN {
			d.preload = append(d.preload, u)
			key := u.Edge.Src
			if u.Kind == graph.UpdateVertex {
				key = u.Vertex.ID
			}
			h := graph.Hash64(uint64(key)) >> 32 & 1
			d.halves[h] = append(d.halves[h], u)
		} else {
			d.tail = append(d.tail, u)
		}
	}
	return d, nil
}

// inQuery reports whether the registered query samples edges of type t (the
// frontend drops the rest).
func (d *dataset) inQuery(t graph.EdgeType) bool {
	for _, h := range d.hops {
		if d.edgeTypes[h.Edge] == t {
			return true
		}
	}
	return false
}

// newOracle returns a reference graph holding the preload.
func (d *dataset) newOracle() *refGraph {
	g := newRefGraph(d.hops, d.edgeTypes)
	for _, u := range d.preload {
		g.apply(u)
	}
	return g
}
