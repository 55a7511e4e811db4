// Social-feed stress: the §7.4 three-hop query
// (Forum-Has-Person-Knows-Person-Knows-Person) on a skewed INTER-shaped
// graph, driven by concurrent closed-loop clients — a miniature of the
// Fig. 15 experiment showing the fixed-lookup-cost property: P99 stays
// bounded even though some forums are supernodes with thousands of members.
//
// Run with: go run ./examples/socialfeed
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"helios"
	"helios/internal/obs"
)

const (
	forums  = 80
	persons = 2000
)

func main() {
	schema := helios.NewSchema()
	forum := schema.AddVertexType("Forum")
	person := schema.AddVertexType("Person")
	has := schema.AddEdgeType("Has", forum, person)
	knows := schema.AddEdgeType("Knows", person, person)

	svc, err := helios.New(helios.Options{
		Samplers: 2,
		Servers:  4,
		Schema:   schema,
		Queries: []string{
			`g.V('Forum').outV('Has').sample(25).by('TopK')
			              .outV('Knows').sample(10).by('TopK')
			              .outV('Knows').sample(5).by('TopK')`,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < forums; i++ {
		must(svc.IngestVertex(helios.Vertex{ID: helios.VertexID(i), Type: forum, Feature: []float32{float32(i)}}))
	}
	for i := 0; i < persons; i++ {
		must(svc.IngestVertex(helios.Vertex{ID: helios.VertexID(10000 + i), Type: person, Feature: []float32{rng.Float32()}}))
	}
	// Zipf-skewed memberships: forum 0 is a supernode.
	zipf := rand.NewZipf(rng, 1.2, 1, forums-1)
	ts := helios.Timestamp(0)
	for i := 0; i < 40000; i++ {
		ts++
		f := helios.VertexID(zipf.Uint64())
		p := helios.VertexID(10000 + rng.Intn(persons))
		must(svc.IngestEdge(helios.Edge{Src: f, Dst: p, Type: has, Ts: ts}))
	}
	for i := 0; i < 60000; i++ {
		ts++
		a := helios.VertexID(10000 + rng.Intn(persons))
		b := helios.VertexID(10000 + rng.Intn(persons))
		must(svc.IngestEdge(helios.Edge{Src: a, Dst: b, Type: knows, Ts: ts}))
	}
	fmt.Println("loading 100k edges into the pre-sampling pipeline...")
	must(svc.Sync(2 * time.Minute))

	// Closed-loop load for 2 seconds. Size the client pool to the host:
	// closed-loop clients beyond the core count only add queueing delay.
	clients := 8 * runtime.GOMAXPROCS(0)
	var hist obs.Histogram
	var served obs.Counter
	var wg sync.WaitGroup
	deadline := time.Now().Add(2 * time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if _, err := svc.Sample(0, helios.VertexID(r.Intn(forums))); err != nil {
					log.Fatal(err)
				}
				hist.Observe(time.Since(t0).Nanoseconds(), 0)
				served.Inc()
			}
		}(int64(c))
	}
	wg.Wait()

	snap := hist.Snapshot()
	fmt.Printf("3-hop [25,10,5] serving under %d clients:\n", clients)
	fmt.Printf("  QPS  ≈ %.0f\n", float64(served.Value())/2)
	fmt.Printf("  avg  = %.2f ms\n", snap.Mean/1e6)
	fmt.Printf("  p99  = %.2f ms\n", float64(snap.P99)/1e6)
	fmt.Printf("  max  = %.2f ms\n", float64(snap.Max)/1e6)

	// The supernode forum costs the same bounded lookups as a tiny one.
	for _, f := range []helios.VertexID{0, helios.VertexID(forums - 1)} {
		t0 := time.Now()
		res, err := svc.Sample(0, f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("forum %d: %d lookups, %d sampled vertices, %.2f ms\n",
			f, res.Lookups, len(res.Layers[1])+len(res.Layers[2])+len(res.Layers[3]),
			float64(time.Since(t0).Nanoseconds())/1e6)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
