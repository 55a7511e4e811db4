package graphdb

import (
	"math/rand"
	"sync"

	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/serving"
)

// ExecStats reports the data-dependent work a query performed.
type ExecStats struct {
	// TraversedNeighbors counts adjacency entries visited — the quantity
	// Fig. 4(c) correlates with latency.
	TraversedNeighbors int
	// RPCCalls counts cross-partition requests (0 for single-node).
	RPCCalls int
}

// Executor runs ad-hoc K-hop sampling queries against a single-node Store.
type Executor struct {
	store *Store
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewExecutor wraps a store.
func NewExecutor(store *Store, seed int64) *Executor {
	return &Executor{store: store, rng: rand.New(rand.NewSource(seed))}
}

// Execute runs the plan from seed, visiting every neighbour of every
// frontier vertex (the ad-hoc cost). The answer takes the serving worker's
// shape, so harnesses compare the systems uniformly.
func (e *Executor) Execute(plan *query.Plan, seed graph.VertexID) (*serving.Result, ExecStats) {
	// A private RNG per call keeps Execute concurrency-safe without
	// serializing queries on one source.
	e.mu.Lock()
	rng := rand.New(rand.NewSource(e.rng.Int63()))
	e.mu.Unlock()

	var stats ExecStats
	res := &serving.Result{
		Layers:   [][]graph.VertexID{{seed}},
		Features: make(map[graph.VertexID][]float32),
	}
	frontier := res.Layers[0]
	for hopIdx, oh := range plan.OneHops {
		next := make([]graph.VertexID, 0, len(frontier)*oh.Fanout)
		for _, v := range frontier {
			samples, scanned := e.store.SampleNeighbors(v, oh.Edge, oh.Dir, oh.Strategy, oh.Fanout, rng)
			stats.TraversedNeighbors += scanned
			for _, s := range samples {
				next = append(next, s.Neighbor)
				res.Edges = append(res.Edges, serving.SampledEdge{
					Hop: hopIdx, Parent: v, Child: s.Neighbor, Ts: s.Ts, Weight: s.Weight,
				})
			}
		}
		res.Layers = append(res.Layers, next)
		frontier = next
	}
	for _, layer := range res.Layers {
		for _, v := range layer {
			if _, ok := res.Features[v]; ok {
				continue
			}
			if f := e.store.Feature(v); f != nil {
				res.Features[v] = f
			}
		}
	}
	return res, stats
}

// CachedExecutor adds a Neo4j-style query cache in front of an executor:
// results are memoized per (query, seed) and invalidated whenever any store
// partition the result touched has since ingested a write. Under continuous
// dynamic-graph updates the hit ratio collapses — the §1 observation that
// "continuous updates render most query caches unavailable".
type CachedExecutor struct {
	exec  *Executor
	store *Store

	mu      sync.Mutex
	epoch   func() int64 // current write epoch
	entries map[cacheKey]cacheEntry

	// Hits / Misses expose the cache effectiveness (ablation benchmark).
	Hits, Misses int64
}

type cacheKey struct {
	q    query.ID
	seed graph.VertexID
}

type cacheEntry struct {
	res   *serving.Result
	epoch int64
}

// NewCachedExecutor wraps exec with a query cache invalidated by store
// writes (any write anywhere invalidates — matching whole-graph version
// invalidation, the cheapest scheme a database can implement safely).
func NewCachedExecutor(exec *Executor, store *Store) *CachedExecutor {
	return &CachedExecutor{
		exec:    exec,
		store:   store,
		epoch:   func() int64 { return store.Edges.Value() + store.Vertices.Value() },
		entries: make(map[cacheKey]cacheEntry),
	}
}

// Execute returns the cached result when no write has occurred since it was
// computed, else recomputes and repopulates.
func (c *CachedExecutor) Execute(plan *query.Plan, seed graph.VertexID) (*serving.Result, ExecStats) {
	key := cacheKey{q: plan.QueryID, seed: seed}
	now := c.epoch()
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok && ent.epoch == now {
		c.Hits++
		c.mu.Unlock()
		return ent.res, ExecStats{}
	}
	c.Misses++
	c.mu.Unlock()
	res, stats := c.exec.Execute(plan, seed)
	c.mu.Lock()
	c.entries[key] = cacheEntry{res: res, epoch: now}
	c.mu.Unlock()
	return res, stats
}

// HitRatio reports hits / (hits+misses).
func (c *CachedExecutor) HitRatio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
