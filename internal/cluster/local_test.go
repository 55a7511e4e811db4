package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"helios/internal/deploy"
	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/sampling"
	"helios/internal/serving"
)

// testGraph is the reference adjacency the cluster's caches must converge
// to.
type testGraph struct {
	schema         *graph.Schema
	user, item     graph.VertexType
	click, copurch graph.EdgeType
	clicks         map[graph.VertexID][]refEdge // user → items
	copurchases    map[graph.VertexID][]refEdge // item → items
}

type refEdge struct {
	dst graph.VertexID
	ts  graph.Timestamp
}

// localConfig sizes an in-process test cluster around a hand-built schema.
type localConfig struct {
	Samplers, Servers, ServerReplicas int
	Schema                            *graph.Schema
	Queries                           []query.Query
	TTL                               time.Duration
	Seed                              int64
}

// deployFor derives the deployment lc describes.
func deployFor(lc localConfig) (*deploy.Config, error) {
	cfg, err := deploy.New(lc.Schema, lc.Queries, lc.Samplers, lc.Servers, lc.ServerReplicas)
	if err != nil {
		return nil, err
	}
	cfg.TTL = lc.TTL
	return cfg, nil
}

// newLocal boots lc on a shared in-process broker.
func newLocal(lc localConfig) (*Local, error) {
	cfg, err := deployFor(lc)
	if err != nil {
		return nil, err
	}
	var o Options
	o.Sampler.Worker.Seed = lc.Seed
	return Boot(cfg, o)
}

func newTestGraph() *testGraph {
	s := graph.NewSchema()
	user := s.AddVertexType("User")
	item := s.AddVertexType("Item")
	click := s.AddEdgeType("Click", user, item)
	cop := s.AddEdgeType("CoPurchase", item, item)
	return &testGraph{
		schema: s, user: user, item: item, click: click, copurch: cop,
		clicks:      make(map[graph.VertexID][]refEdge),
		copurchases: make(map[graph.VertexID][]refEdge),
	}
}

// topK returns the k neighbour IDs with the largest timestamps.
func topK(edges []refEdge, k int) []graph.VertexID {
	sorted := append([]refEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ts > sorted[j].ts })
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	out := make([]graph.VertexID, len(sorted))
	for i, e := range sorted {
		out[i] = e.dst
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(in []graph.VertexID) []graph.VertexID {
	out := append([]graph.VertexID(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Vertex ID spaces: users 1000+, items 2000+ (disjoint so hashes differ).
func userID(i int) graph.VertexID { return graph.VertexID(1000 + i) }
func itemID(i int) graph.VertexID { return graph.VertexID(2000 + i) }

func twoHopTopK(t *testing.T, g *testGraph, fanouts [2]int) query.Query {
	t.Helper()
	q, err := query.NewBuilder(g.schema, "User").
		Out("Click", fanouts[0], sampling.TopK).
		Out("CoPurchase", fanouts[1], sampling.TopK).
		Build("test-2hop")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEndToEndTopKTwoHop(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2,
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const users, items = 40, 25
	rng := rand.New(rand.NewSource(7))
	// Features for everyone first.
	for i := 0; i < users; i++ {
		mustIngest(t, c, graph.NewVertexUpdate(graph.Vertex{ID: userID(i), Type: g.user, Feature: []float32{float32(i), 1}}))
	}
	for i := 0; i < items; i++ {
		mustIngest(t, c, graph.NewVertexUpdate(graph.Vertex{ID: itemID(i), Type: g.item, Feature: []float32{float32(i), 2}}))
	}
	// Edge stream with unique increasing timestamps (TopK is then exact).
	ts := graph.Timestamp(0)
	for n := 0; n < 1500; n++ {
		ts++
		if n%3 == 0 { // click
			u, it := userID(rng.Intn(users)), itemID(rng.Intn(items))
			g.clicks[u] = append(g.clicks[u], refEdge{dst: it, ts: ts})
			mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: it, Type: g.click, Ts: ts}))
		} else { // co-purchase
			a, b := itemID(rng.Intn(items)), itemID(rng.Intn(items))
			g.copurchases[a] = append(g.copurchases[a], refEdge{dst: b, ts: ts})
			mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: a, Dst: b, Type: g.copurch, Ts: ts}))
		}
	}
	if err := c.WaitQuiesce(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < users; i++ {
		u := userID(i)
		res, err := c.Sample(0, u)
		if err != nil {
			t.Fatal(err)
		}
		wantHop1 := topK(g.clicks[u], 2)
		gotHop1 := sortedIDs(res.Layers[1])
		if !idsEqual(gotHop1, wantHop1) {
			t.Fatalf("user %d hop-1: got %v want %v", u, gotHop1, wantHop1)
		}
		// Per-parent hop-2 verification via the edge list.
		perParent := map[graph.VertexID][]graph.VertexID{}
		for _, e := range res.Edges {
			if e.Hop == 1 {
				perParent[e.Parent] = append(perParent[e.Parent], e.Child)
			}
		}
		for _, it := range wantHop1 {
			want := topK(g.copurchases[it], 2)
			got := sortedIDs(perParent[it])
			if !idsEqual(got, want) {
				t.Fatalf("user %d item %d hop-2: got %v want %v", u, it, got, want)
			}
		}
		// Every vertex in the tree must have its feature cached.
		if res.FeatureMisses != 0 {
			t.Fatalf("user %d: %d feature misses", u, res.FeatureMisses)
		}
		for v, feat := range res.Features {
			if len(feat) != 2 {
				t.Fatalf("vertex %d: feature %v", v, feat)
			}
		}
		// Lookup bound from §6.
		if maxSample, _ := c.Config.Plans[0].Query.MaxLookups(); res.Lookups > maxSample {
			t.Fatalf("lookups %d exceed bound %d", res.Lookups, maxSample)
		}
	}
}

func mustIngest(t *testing.T, c *Local, u graph.Update) {
	t.Helper()
	if err := c.Ingest(u); err != nil {
		t.Fatal(err)
	}
}

func TestEventualConsistencyAfterChurn(t *testing.T) {
	// New edges arriving after an initial converged state must replace the
	// cached samples (the Fig. 7 walk-through: V4 displaces V3).
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2,
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	u := userID(0)
	// items 0,1 clicked; item 0 co-purchases item 2.
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(0), Type: g.click, Ts: 1}))
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(1), Type: g.click, Ts: 2}))
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: itemID(0), Dst: itemID(2), Type: g.copurch, Ts: 3}))
	if err := c.WaitQuiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Sample(0, u)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(sortedIDs(res.Layers[1]), []graph.VertexID{itemID(0), itemID(1)}) {
		t.Fatalf("initial hop-1 = %v", res.Layers[1])
	}

	// Click items 3 and 4 with newer timestamps: top-2 becomes {3,4}.
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(3), Type: g.click, Ts: 10}))
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: itemID(4), Type: g.click, Ts: 11}))
	// Item 3 co-purchases item 5.
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: itemID(3), Dst: itemID(5), Type: g.copurch, Ts: 12}))
	if err := c.WaitQuiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	res, err = c.Sample(0, u)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(sortedIDs(res.Layers[1]), []graph.VertexID{itemID(3), itemID(4)}) {
		t.Fatalf("post-churn hop-1 = %v", sortedIDs(res.Layers[1]))
	}
	found := false
	for _, e := range res.Edges {
		if e.Hop == 1 && e.Parent == itemID(3) && e.Child == itemID(5) {
			found = true
		}
	}
	if !found {
		t.Fatal("new subtree (item3 → item5) not materialized")
	}

	// Item 0 left the tree: its hop-2 cell must be evicted from the seed's
	// serving worker (no other seed references it).
	sew := c.Route(u)
	hop2 := c.Config.Plans[0].OneHops[1].ID
	if sew.HasSample(hop2, itemID(0)) {
		t.Fatal("stale hop-2 cell for evicted item 0 still cached")
	}
}

func TestRandomStrategyStructure(t *testing.T) {
	// Random sampling: structural checks — sampled neighbours must be true
	// neighbours, fan-out respected.
	g := newTestGraph()
	q, err := query.NewBuilder(g.schema, "User").
		Out("Click", 3, sampling.Random).
		Out("CoPurchase", 2, sampling.Random).
		Build("rand")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2, Schema: g.schema, Queries: []query.Query{q}, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(3))
	neighbors := map[graph.VertexID]map[graph.VertexID]bool{}
	addRef := func(src, dst graph.VertexID) {
		if neighbors[src] == nil {
			neighbors[src] = map[graph.VertexID]bool{}
		}
		neighbors[src][dst] = true
	}
	for n := 0; n < 800; n++ {
		if n%2 == 0 {
			u, it := userID(rng.Intn(10)), itemID(rng.Intn(30))
			addRef(u, it)
			mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: it, Type: g.click, Ts: graph.Timestamp(n)}))
		} else {
			a, b := itemID(rng.Intn(30)), itemID(rng.Intn(30))
			addRef(a, b)
			mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: a, Dst: b, Type: g.copurch, Ts: graph.Timestamp(n)}))
		}
	}
	if err := c.WaitQuiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		u := userID(i)
		res, err := c.Sample(0, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Layers[1]) > 3 {
			t.Fatalf("hop-1 fan-out violated: %d", len(res.Layers[1]))
		}
		for _, e := range res.Edges {
			src := e.Parent
			if !neighbors[src][e.Child] {
				t.Fatalf("sampled non-neighbour %d of %d", e.Child, src)
			}
		}
	}
}

func TestThreeHopQuery(t *testing.T) {
	// FIN-style self-loop schema: Account-TransferTo-Account ×3.
	s := graph.NewSchema()
	acct := s.AddVertexType("Account")
	xfer := s.AddEdgeType("TransferTo", acct, acct)
	q, err := query.NewBuilder(s, "Account").
		Out("TransferTo", 2, sampling.TopK).
		Out("TransferTo", 2, sampling.TopK).
		Out("TransferTo", 2, sampling.TopK).
		Build("3hop")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2, Schema: s, Queries: []query.Query{q},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A small chain-rich graph: account i transfers to i+1 and i+2.
	const accounts = 30
	ts := graph.Timestamp(0)
	adj := map[graph.VertexID][]refEdge{}
	for i := 0; i < accounts; i++ {
		for _, d := range []int{1, 2} {
			ts++
			src, dst := graph.VertexID(100+i), graph.VertexID(100+(i+d)%accounts)
			adj[src] = append(adj[src], refEdge{dst: dst, ts: ts})
			mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: src, Dst: dst, Type: xfer, Ts: ts}))
		}
	}
	if err := c.WaitQuiesce(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	res, err := c.Sample(0, graph.VertexID(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 4 {
		t.Fatalf("layers = %d", len(res.Layers))
	}
	if res.SampleMisses != 0 {
		t.Fatalf("sample misses = %d", res.SampleMisses)
	}
	// Every account has exactly 2 out-edges, so each layer doubles.
	for k, want := range []int{1, 2, 4, 8} {
		if len(res.Layers[k]) != want {
			t.Fatalf("layer %d size = %d, want %d", k, len(res.Layers[k]), want)
		}
	}
	// Verify hop-3 contents against the reference adjacency. A parent can
	// appear on several paths, so collect its children as a set.
	perParent := map[graph.VertexID]map[graph.VertexID]bool{}
	for _, e := range res.Edges {
		if e.Hop == 2 {
			if perParent[e.Parent] == nil {
				perParent[e.Parent] = map[graph.VertexID]bool{}
			}
			perParent[e.Parent][e.Child] = true
		}
	}
	for parent, childSet := range perParent {
		var children []graph.VertexID
		for ch := range childSet {
			children = append(children, ch)
		}
		want := topK(adj[parent], 2)
		if !idsEqual(sortedIDs(children), want) {
			t.Fatalf("hop-3 of %d: got %v want %v", parent, sortedIDs(children), want)
		}
	}
}

func TestSampleUnknownQuery(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Sample(99, userID(0)); err == nil {
		t.Fatal("unknown query should fail")
	}
}

// TestRouteServeBatch: a batch sent to the worker Route picks for its seed
// is admitted and assembled by that worker's serve pool.
func TestRouteServeBatch(t *testing.T) {
	g := newTestGraph()
	c, err := newLocal(localConfig{
		Samplers: 1, Servers: 2,
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(1), Dst: itemID(1), Type: g.click, Ts: 1}))
	if err := c.WaitQuiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := rpc.Ctx{Deadline: time.Now().Add(5 * time.Second)}
	out, err := c.Route(userID(1)).ServeBatch(ctx, []serving.BatchItem{{Query: 0, Seed: userID(1)}})
	if err != nil {
		t.Fatal(err)
	}
	r := out[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	res, err := r.Result.Decode()
	r.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers[1]) != 1 || res.Layers[1][0] != itemID(1) {
		t.Fatalf("served result: %v", res.Layers)
	}
}

func TestIngestIrrelevantEdgeSkipped(t *testing.T) {
	g := newTestGraph()
	// Register a query that only uses Click.
	q, err := query.NewBuilder(g.schema, "User").Out("Click", 2, sampling.TopK).Build("1hop")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLocal(localConfig{Schema: g.schema, Queries: []query.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: itemID(0), Dst: itemID(1), Type: g.copurch, Ts: 1}))
	if c.IngestedRecords() != 0 {
		t.Fatal("irrelevant edge should be dropped at the router")
	}
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(0), Dst: itemID(1), Type: g.click, Ts: 1}))
	if c.IngestedRecords() != 1 {
		t.Fatal("relevant edge should be ingested")
	}
}

func TestMultipleQueriesCoexist(t *testing.T) {
	g := newTestGraph()
	q1 := twoHopTopK(t, g, [2]int{2, 2})
	q2, err := query.NewBuilder(g.schema, "Item").
		In("Click", 3, sampling.TopK). // items → users who clicked them
		Build("reverse")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLocal(localConfig{
		Samplers: 2, Servers: 2,
		Schema:  g.schema,
		Queries: []query.Query{q1, q2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Three users click item 7.
	for i := 0; i < 3; i++ {
		mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{
			Src: userID(i), Dst: itemID(7), Type: g.click, Ts: graph.Timestamp(i + 1),
		}))
	}
	if err := c.WaitQuiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Query 1 (forward): each user sampled item 7.
	for i := 0; i < 3; i++ {
		res, err := c.Sample(0, userID(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Layers[1]) != 1 || res.Layers[1][0] != itemID(7) {
			t.Fatalf("forward query user %d: %v", i, res.Layers[1])
		}
	}
	// Query 2 (reverse): item 7's one-hop holds all three users.
	res, err := c.Sample(1, itemID(7))
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.VertexID{userID(0), userID(1), userID(2)}
	if !idsEqual(sortedIDs(res.Layers[1]), want) {
		t.Fatalf("reverse query: got %v want %v", sortedIDs(res.Layers[1]), want)
	}
}

func TestScaleOutConfigurations(t *testing.T) {
	// The same workload must converge to the same TopK state under any
	// M×N topology (partitioning must not change semantics).
	g := newTestGraph()
	type cfg struct{ m, n int }
	for _, tc := range []cfg{{1, 1}, {1, 3}, {3, 1}, {4, 4}} {
		t.Run(fmt.Sprintf("M%dxN%d", tc.m, tc.n), func(t *testing.T) {
			c, err := newLocal(localConfig{
				Samplers: tc.m, Servers: tc.n,
				Schema:  g.schema,
				Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clicks := map[graph.VertexID][]refEdge{}
			rng := rand.New(rand.NewSource(5))
			ts := graph.Timestamp(0)
			for n := 0; n < 300; n++ {
				ts++
				u, it := userID(rng.Intn(8)), itemID(rng.Intn(12))
				clicks[u] = append(clicks[u], refEdge{dst: it, ts: ts})
				mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: u, Dst: it, Type: g.click, Ts: ts}))
			}
			if err := c.WaitQuiesce(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			for u, edges := range clicks {
				res, err := c.Sample(0, u)
				if err != nil {
					t.Fatal(err)
				}
				if !idsEqual(sortedIDs(res.Layers[1]), topK(edges, 2)) {
					t.Fatalf("M%d×N%d user %d: got %v want %v",
						tc.m, tc.n, u, sortedIDs(res.Layers[1]), topK(edges, 2))
				}
			}
		})
	}
}
