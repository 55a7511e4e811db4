// Real-time recommendation: the Fig. 1 / Table 2 Taobao scenario with the
// full online-inference pipeline of Fig. 19 — Helios samples the user's
// live 2-hop neighbourhood, a GraphSAGE model server embeds it over RPC,
// and items are ranked by embedding similarity.
//
// The demo shows why *online* sampling matters: a user who has been
// browsing kitchenware suddenly starts clicking camping gear, and the very
// next recommendation reflects it.
//
// Run with: go run ./examples/recommend
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"helios"
	"helios/internal/gnn"
)

const (
	users       = 50
	itemsPerCat = 30
	dim         = 8
)

// Two catalogue categories with distinguishable features.
var categories = []string{"kitchen", "camping"}

func itemID(cat, i int) helios.VertexID {
	return helios.VertexID(1000 + cat*itemsPerCat + i)
}

func itemFeature(cat int, rng *rand.Rand) []float32 {
	f := make([]float32, dim)
	for i := range f {
		f[i] = rng.Float32() * 0.1
	}
	f[cat] = 1
	return f
}

func main() {
	schema := helios.NewSchema()
	user := schema.AddVertexType("User")
	item := schema.AddVertexType("Item")
	click := schema.AddEdgeType("Click", user, item)
	cop := schema.AddEdgeType("CoPurchase", item, item)

	svc, err := helios.New(helios.Options{
		Samplers: 2,
		Servers:  2,
		Schema:   schema,
		Queries: []string{
			`g.V('User').outV('Click').sample(5).by('TopK')
			             .outV('CoPurchase').sample(3).by('TopK')`,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// Model serving (the TF-Serving role): a GraphSAGE encoder over RPC.
	// For a self-contained demo the single layer is set to an interpretable
	// aggregator — embedding = 0.2·user + mean(clicked-item features) — so
	// the category signal in item features passes straight through. A real
	// deployment loads trained weights instead (see internal/gnn's trainer
	// and the Fig. 18 experiment).
	encoder := gnn.NewEncoder([]int{dim, dim}, 5)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			encoder.Layers[0].WSelf.Set(i, j, 0)
			encoder.Layers[0].WNeigh.Set(i, j, 0)
		}
		encoder.Layers[0].WSelf.Set(i, i, 0.2)
		encoder.Layers[0].WNeigh.Set(i, i, 1)
	}
	modelSrv := gnn.NewServer(encoder)
	addr, err := modelSrv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer modelSrv.Close()
	model, err := gnn.DialModel(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close()

	rng := rand.New(rand.NewSource(3))
	itemFeats := map[helios.VertexID][]float32{}
	for cat := range categories {
		for i := 0; i < itemsPerCat; i++ {
			id := itemID(cat, i)
			feat := itemFeature(cat, rng)
			itemFeats[id] = feat
			must(svc.IngestVertex(helios.Vertex{ID: id, Type: item, Feature: feat}))
		}
	}
	for u := 0; u < users; u++ {
		must(svc.IngestVertex(helios.Vertex{ID: helios.VertexID(u), Type: user, Feature: make([]float32, dim)}))
	}

	// Co-purchases stay within category (that's what makes hop 2 useful).
	ts := helios.Timestamp(0)
	for cat := range categories {
		for i := 0; i < 200; i++ {
			ts++
			a, b := rng.Intn(itemsPerCat), rng.Intn(itemsPerCat)
			must(svc.IngestEdge(helios.Edge{Src: itemID(cat, a), Dst: itemID(cat, b), Type: cop, Ts: ts}))
		}
	}

	// User 0 browses kitchenware.
	alice := helios.VertexID(0)
	for i := 0; i < 6; i++ {
		ts++
		must(svc.IngestEdge(helios.Edge{Src: alice, Dst: itemID(0, rng.Intn(itemsPerCat)), Type: click, Ts: ts}))
	}
	must(svc.Sync(30 * time.Second))
	fmt.Println("Alice has been browsing kitchenware; top recommendations:")
	recommend(svc, model, itemFeats, alice)

	// Suddenly: camping gear.
	for i := 0; i < 6; i++ {
		ts++
		must(svc.IngestEdge(helios.Edge{Src: alice, Dst: itemID(1, rng.Intn(itemsPerCat)), Type: click, Ts: ts}))
	}
	must(svc.Sync(30 * time.Second))
	fmt.Println("Alice switched to camping gear; top recommendations now:")
	recommend(svc, model, itemFeats, alice)
}

// recommend embeds the user's live sampled neighbourhood via the model
// server and ranks items by dot-product similarity.
func recommend(svc *helios.Service, model *gnn.Client, itemFeats map[helios.VertexID][]float32, u helios.VertexID) {
	sample, err := svc.Cluster().SampleEncoded(0, u)
	if err != nil {
		log.Fatal(err)
	}
	emb, err := model.Embed(sample)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sample.Decode() // only for the clicked set
	if err != nil {
		log.Fatal(err)
	}

	type scored struct {
		id    helios.VertexID
		score float32
	}
	var ranked []scored
	clicked := map[helios.VertexID]bool{}
	for _, v := range res.Layers[1] {
		clicked[v] = true
	}
	for id, feat := range itemFeats {
		if clicked[id] {
			continue // don't recommend what was just clicked
		}
		var s float32
		for i := range emb {
			s += emb[i] * feat[i]
		}
		ranked = append(ranked, scored{id: id, score: s})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	for _, s := range ranked[:5] {
		cat := "kitchen"
		if int(s.id-1000) >= itemsPerCat {
			cat = "camping"
		}
		fmt.Printf("  item %d (%s) score %.3f\n", s.id, cat, s.score)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
