package graphdb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/sampling"
	"helios/internal/serving"
)

// Dist is the distributed deployment of the baseline database: P partition
// servers over loopback TCP, each holding a Store shard, with a query
// router that executes K-hop sampling by one batched RPC round per hop per
// touched partition — the communication pattern whose cost Fig. 4(d)
// measures.
type Dist struct {
	part    graph.Partitioner
	stores  []*Store
	servers []*rpc.Server
	clients []*rpc.Client

	mu      sync.Mutex
	rng     *rand.Rand
	timeout time.Duration
}

// DistOptions configures a distributed baseline cluster.
type DistOptions struct {
	// Nodes is the partition count (cluster size); 0 defaults to 1.
	Nodes int
	// NetDelay is slept by every partition server before it serves a
	// request, to model datacenter RTT beyond loopback. Zero uses raw
	// loopback cost.
	NetDelay time.Duration
	// Shards stripes each partition's locks.
	Shards int
	// Seed drives randomized sampling server-side.
	Seed int64
	// Timeout bounds each RPC; 0 defaults to 10s.
	Timeout time.Duration
}

const (
	methodIngest = "gdb.ingest"
	methodSample = "gdb.sample"
	methodFeat   = "gdb.feat"
)

// NewDist starts the partition servers and connects the router.
func NewDist(opts DistOptions) (*Dist, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Timeout == 0 {
		opts.Timeout = 10 * time.Second
	}
	d := &Dist{
		part: graph.NewPartitioner(opts.Nodes),
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	for i := 0; i < opts.Nodes; i++ {
		store := NewStore(StoreOptions{Shards: opts.Shards})
		srv := rpc.NewServer()
		registerHandlers(srv, store, opts.Seed+int64(i)+1, opts.NetDelay)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			d.Close()
			return nil, err
		}
		client, err := rpc.Dial(addr)
		if err != nil {
			srv.Close()
			d.Close()
			return nil, err
		}
		d.stores = append(d.stores, store)
		d.servers = append(d.servers, srv)
		d.clients = append(d.clients, client)
	}
	d.timeout = opts.Timeout
	return d, nil
}

// registerHandlers installs the partition-server RPC surface, each handler
// sleeping delay before it serves.
func registerHandlers(srv *rpc.Server, store *Store, seed int64, delay time.Duration) {
	var mu sync.Mutex
	master := rand.New(rand.NewSource(seed))
	handle := func(method string, h func([]byte) ([]byte, error)) {
		srv.Handle(method, func(req []byte) ([]byte, error) {
			time.Sleep(delay)
			return h(req)
		})
	}
	handle(methodIngest, func(req []byte) ([]byte, error) {
		u, err := codec.DecodeUpdate(req)
		if err != nil {
			return nil, err
		}
		store.ApplyUpdate(u)
		return nil, nil
	})
	handle(methodSample, func(req []byte) ([]byte, error) {
		mu.Lock()
		rng := rand.New(rand.NewSource(master.Int63()))
		mu.Unlock()
		return serveSample(store, rng, req)
	})
	handle(methodFeat, func(req []byte) ([]byte, error) { return serveFeat(store, req) })
}

// serveSample answers one gdb.sample request: a neighbour sample of every
// vertex it names. Its count is checked against the bytes that carry it
// (codec.Reader.Count) before the reply buffer is sized from it, and the
// loop stops at the first failed read, as in every reader below.
func serveSample(store *Store, rng *rand.Rand, req []byte) ([]byte, error) {
	r := codec.NewReader(req)
	et := graph.EdgeType(r.Uvarint())
	dir := graph.Direction(r.Byte())
	strat := sampling.Strategy(r.Byte())
	fanout := int(min(r.Uvarint(), math.MaxInt32)) // a value, not a length
	n := r.Count(1)
	w := codec.NewWriter(64 * n)
	w.Uvarint(uint64(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		v := graph.VertexID(r.Uvarint())
		samples, scanned := store.SampleNeighbors(v, et, dir, strat, fanout, rng)
		w.Uvarint(uint64(v))
		w.Uvarint(uint64(scanned))
		w.Uvarint(uint64(len(samples)))
		for _, s := range samples {
			w.Uvarint(uint64(s.Neighbor))
			w.Varint(int64(s.Ts))
			w.Float32(s.Weight)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// serveFeat answers one gdb.feat request: the feature of every vertex it
// names.
func serveFeat(store *Store, req []byte) ([]byte, error) {
	r := codec.NewReader(req)
	n := r.Count(1)
	w := codec.NewWriter(64 * n)
	w.Uvarint(uint64(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		v := graph.VertexID(r.Uvarint())
		w.Uvarint(uint64(v))
		f := store.Feature(v)
		w.Bool(f != nil)
		if f != nil {
			w.Float32s(f)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// readSamples appends one partition's gdb.sample reply for hop to res and
// next, and returns the grown next layer. A vertex entry takes at least 3
// bytes and an edge 6, so neither count can claim more than the reply
// carries, and the loops stop at the first failed read.
func readSamples(resp []byte, hop int, res *serving.Result, next []graph.VertexID, stats *ExecStats) ([]graph.VertexID, error) {
	r := codec.NewReader(resp)
	for i, n := 0, r.Count(3); i < n && r.Err() == nil; i++ {
		v := graph.VertexID(r.Uvarint())
		stats.TraversedNeighbors += int(min(r.Uvarint(), math.MaxInt32)) // a tally, not a length
		for j, cnt := 0, r.Count(6); j < cnt && r.Err() == nil; j++ {
			child := graph.VertexID(r.Uvarint())
			ts := graph.Timestamp(r.Varint())
			wt := r.Float32()
			next = append(next, child)
			res.Edges = append(res.Edges, serving.SampledEdge{Hop: hop, Parent: v, Child: child, Ts: ts, Weight: wt})
		}
	}
	return next, r.Err()
}

// readFeatures adds one partition's gdb.feat reply to res. An entry takes
// at least 2 bytes.
func readFeatures(resp []byte, res *serving.Result) error {
	r := codec.NewReader(resp)
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		v := graph.VertexID(r.Uvarint())
		if r.Bool() {
			res.Features[v] = r.Float32s()
		}
	}
	return r.Err()
}

// Ingest applies one update with strong consistency: the call returns only
// after every owning partition has committed it.
func (d *Dist) Ingest(u graph.Update) error {
	payload := codec.EncodeUpdate(u)
	switch u.Kind {
	case graph.UpdateVertex:
		_, err := d.clients[d.part.Of(u.Vertex.ID)].Call(methodIngest, payload, d.timeout)
		return err
	case graph.UpdateEdge:
		p1 := d.part.Of(u.Edge.Src)
		if _, err := d.clients[p1].Call(methodIngest, payload, d.timeout); err != nil {
			return err
		}
		if p2 := d.part.Of(u.Edge.Dst); p2 != p1 {
			// The dst partition stores the in-adjacency replica.
			if _, err := d.clients[p2].Call(methodIngest, payload, d.timeout); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("graphdb: unknown update kind %d", u.Kind)
	}
}

// Execute runs the plan from seed: one batched RPC round per hop per
// touched partition, then a feature-fetch round.
func (d *Dist) Execute(plan *query.Plan, seed graph.VertexID) (*serving.Result, ExecStats, error) {
	var stats ExecStats
	// d.timeout budgets the whole query, not each RPC: every fan-out call
	// below draws its wait from this one deadline, so the worst-case
	// Execute latency stays d.timeout regardless of hop count or how many
	// partitions the frontier touches.
	deadline := time.Now().Add(d.timeout)
	res := &serving.Result{
		Layers:   [][]graph.VertexID{{seed}},
		Features: make(map[graph.VertexID][]float32),
	}
	frontier := res.Layers[0]
	for hopIdx, oh := range plan.OneHops {
		// Group the frontier by owning partition. Duplicate vertices stay
		// duplicated: each occurrence is an independent sampling draw, as
		// in the single-node executor.
		groups := make(map[int][]graph.VertexID)
		for _, v := range frontier {
			p := d.part.Of(v)
			groups[p] = append(groups[p], v)
		}
		next := make([]graph.VertexID, 0, len(frontier)*oh.Fanout)
		for p, vs := range groups {
			stats.RPCCalls++
			w := codec.NewWriter(16 + 9*len(vs))
			w.Uvarint(uint64(oh.Edge))
			w.Byte(byte(oh.Dir))
			w.Byte(byte(oh.Strategy))
			w.Uvarint(uint64(oh.Fanout))
			w.Uvarint(uint64(len(vs)))
			for _, v := range vs {
				w.Uvarint(uint64(v))
			}
			resp, err := d.clients[p].Call(methodSample, w.Bytes(), time.Until(deadline))
			if err != nil {
				return nil, stats, err
			}
			if next, err = readSamples(resp, hopIdx, res, next, &stats); err != nil {
				return nil, stats, err
			}
		}
		res.Layers = append(res.Layers, next)
		frontier = next
	}

	// Feature round: batch distinct vertices by partition.
	distinct := make(map[graph.VertexID]bool)
	groups := make(map[int][]graph.VertexID)
	for _, layer := range res.Layers {
		for _, v := range layer {
			if !distinct[v] {
				distinct[v] = true
				groups[d.part.Of(v)] = append(groups[d.part.Of(v)], v)
			}
		}
	}
	for p, vs := range groups {
		stats.RPCCalls++
		w := codec.NewWriter(8 + 9*len(vs))
		w.Uvarint(uint64(len(vs)))
		for _, v := range vs {
			w.Uvarint(uint64(v))
		}
		resp, err := d.clients[p].Call(methodFeat, w.Bytes(), time.Until(deadline))
		if err != nil {
			return nil, stats, err
		}
		if err := readFeatures(resp, res); err != nil {
			return nil, stats, err
		}
	}
	return res, stats, nil
}

// Nodes returns the partition count.
func (d *Dist) Nodes() int { return d.part.N() }

// Stores exposes the partition stores (for dataset statistics).
func (d *Dist) Stores() []*Store { return d.stores }

// Close tears down clients and servers.
func (d *Dist) Close() {
	for _, c := range d.clients {
		if c != nil {
			c.Close()
		}
	}
	for _, s := range d.servers {
		if s != nil {
			s.Close()
		}
	}
}
