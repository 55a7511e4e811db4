// Quickstart: the smallest end-to-end Helios program.
//
// It builds the Fig. 1 e-commerce schema, registers the 2-hop sampling
// query through the textual DSL, streams a handful of graph updates, and
// serves a K-hop sampling query from the query-aware cache — then streams
// one more click and shows the pre-sampled result changing in real time.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"helios"
)

func main() {
	schema := helios.NewSchema()
	user := schema.AddVertexType("User")
	item := schema.AddVertexType("Item")
	click := schema.AddEdgeType("Click", user, item)
	copurchase := schema.AddEdgeType("CoPurchase", item, item)

	svc, err := helios.New(helios.Options{
		Samplers: 2,
		Servers:  2,
		Schema:   schema,
		Queries: []string{
			`g.V('User').alias('Seed')
			   .outV('Click').sample(2).by('TopK')
			   .outV('CoPurchase').sample(2).by('TopK').values`,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// Stream features, then behaviour events with increasing timestamps.
	alice := helios.VertexID(1)
	items := []helios.VertexID{100, 101, 102, 103}
	must(svc.IngestVertex(helios.Vertex{ID: alice, Type: user, Feature: []float32{0.9, 0.1}}))
	for i, it := range items {
		must(svc.IngestVertex(helios.Vertex{ID: it, Type: item, Feature: []float32{float32(i), 1}}))
	}
	must(svc.IngestEdge(helios.Edge{Src: alice, Dst: items[0], Type: click, Ts: 1}))
	must(svc.IngestEdge(helios.Edge{Src: alice, Dst: items[1], Type: click, Ts: 2}))
	must(svc.IngestEdge(helios.Edge{Src: items[0], Dst: items[2], Type: copurchase, Ts: 3}))
	must(svc.IngestEdge(helios.Edge{Src: items[1], Dst: items[3], Type: copurchase, Ts: 4}))
	must(svc.Sync(10 * time.Second))

	res, err := svc.Sample(0, alice)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial 2-hop sample for Alice:")
	printResult(res)

	// A new click arrives: TopK(2) now prefers the two newest items, and
	// the pre-sampled cache updates without any query-time traversal.
	must(svc.IngestEdge(helios.Edge{Src: alice, Dst: items[2], Type: click, Ts: 5}))
	must(svc.Sync(10 * time.Second))
	res, err = svc.Sample(0, alice)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after a new click (event-driven pre-sampling updated the cache):")
	printResult(res)

	st := svc.Stats()
	fmt.Printf("stats: ingested=%d snapshotsPushed=%d featuresPushed=%d cacheBytes=%d\n",
		st.Ingested, st.SnapshotsSent, st.FeaturesSent, st.CacheBytes)
}

func printResult(res *helios.Result) {
	fmt.Printf("  hop-1 items: %v\n", res.Layers[1])
	for _, e := range res.Edges {
		if e.Hop == 1 {
			fmt.Printf("  hop-2: item %d co-purchased with %d (ts %d)\n", e.Parent, e.Child, e.Ts)
		}
	}
	ids := make([]helios.VertexID, 0, len(res.Features))
	for v := range res.Features {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		fmt.Printf("  feature[%d] = %v\n", v, res.Features[v])
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
