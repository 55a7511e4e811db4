package helios

// One testing.B benchmark per paper table/figure (reduced scale — the
// cmd/helios-bench harness prints the full paper-style rows), plus
// ablations of the design choices DESIGN.md calls out. Custom metrics are
// attached via b.ReportMetric where a figure's quantity is not ns/op.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/gnn"
	"helios/internal/graph"
	"helios/internal/graphdb"
	"helios/internal/kvstore"
	"helios/internal/query"
	"helios/internal/sampling"
	"helios/internal/serving"
	"helios/internal/workload"
)

const benchScale = 0.02

// loadedBenchCluster streams spec into a fresh Helios cluster and quiesces.
func loadedBenchCluster(b *testing.B, spec workload.DatasetSpec, strat sampling.Strategy, samplers, servers int) (*cluster.Local, *workload.Generator) {
	b.Helper()
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	q, err := gen.BuildQuery(strat)
	if err != nil {
		b.Fatal(err)
	}
	c := benchCluster(b, Options{Samplers: samplers, Servers: servers, Schema: gen.Schema(), CompiledQueries: []Query{q}})
	if _, err := workload.ReplayAll(gen, c.Ingest); err != nil {
		b.Fatal(err)
	}
	if err := c.WaitQuiesce(2 * time.Minute); err != nil {
		b.Fatal(err)
	}
	return c, gen
}

// benchCluster boots an unloaded in-process cluster through the public
// Service (seed 1 unless opts says otherwise) and hands back its handle.
func benchCluster(b *testing.B, opts Options) *cluster.Local {
	b.Helper()
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	svc, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	return svc.Cluster()
}

func loadedBenchBaseline(b *testing.B, spec workload.DatasetSpec, nodes int, strat sampling.Strategy) (*graphdb.Dist, *workload.Generator, *query.Plan) {
	b.Helper()
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	d, err := graphdb.NewDist(graphdb.DistOptions{Nodes: nodes, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		if err := d.Ingest(u); err != nil {
			b.Fatal(err)
		}
	}
	q, err := gen.BuildQuery(strat)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := query.Decompose(0, q, gen.Schema())
	if err != nil {
		b.Fatal(err)
	}
	return d, gen, plan
}

// BenchmarkTable1DatasetGen measures update-stream generation (the Table 1
// datasets' production rate).
func BenchmarkTable1DatasetGen(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := gen.Next(); !ok {
			gen, _ = workload.NewGenerator(spec)
		}
	}
}

// BenchmarkTable2QueryDecompose measures DSL parse + decomposition of the
// Fig. 1 query (Table 2's registration path).
func BenchmarkTable2QueryDecompose(b *testing.B) {
	s := graph.NewSchema()
	user := s.AddVertexType("User")
	item := s.AddVertexType("Item")
	s.AddEdgeType("Click", user, item)
	s.AddEdgeType("CoPurchase", item, item)
	src := `g.V('User').outV('Click').sample(25).by('Random').outV('CoPurchase').sample(10).by('TopK')`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(src, s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := query.Decompose(0, q, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aLatencyBreakdown measures the baseline's end-to-end online
// inference (ad-hoc sampling + model forward), the Fig. 4(a) pipeline.
func BenchmarkFig4aLatencyBreakdown(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	d, gen, plan := loadedBenchBaseline(b, spec, 2, sampling.TopK)
	defer d.Close()
	enc := gnn.NewEncoder([]int{spec.Vertices[0].FeatureDim, 16, 8}, 1)
	rng := rand.New(rand.NewSource(1))
	var sampleNS, inferNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, _, err := d.Execute(plan, gen.SeedVertex(rng))
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		sampleNS += t1.Sub(t0).Nanoseconds()
		edges := make([]gnn.HopEdge, len(res.Edges))
		for j, e := range res.Edges {
			edges[j] = gnn.HopEdge{Hop: e.Hop, Parent: e.Parent, Child: e.Child}
		}
		enc.Embed(gnn.BuildTree(res.Layers, edges, res.Features, spec.Vertices[0].FeatureDim))
		inferNS += time.Since(t1).Nanoseconds()
	}
	b.ReportMetric(float64(sampleNS)/float64(sampleNS+inferNS)*100, "sampling-%")
}

// BenchmarkFig4bTailLatency measures one ad-hoc distributed TopK query
// (whose data-dependent spread produces the Fig. 4(b) tail).
func BenchmarkFig4bTailLatency(b *testing.B) {
	d, gen, plan := loadedBenchBaseline(b, workload.INTER().Scale(benchScale), 2, sampling.TopK)
	defer d.Close()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Execute(plan, gen.SeedVertex(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4cSkewScan measures single-node sequential TopK queries and
// reports the mean neighbours traversed per query (the Fig. 4(c) x-axis).
func BenchmarkFig4cSkewScan(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	store := graphdb.NewStore(graphdb.StoreOptions{})
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		store.ApplyUpdate(u)
	}
	q, _ := gen.BuildQuery(sampling.TopK)
	plan, _ := query.Decompose(0, q, gen.Schema())
	exec := graphdb.NewExecutor(store, 1)
	rng := rand.New(rand.NewSource(3))
	traversed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := exec.Execute(plan, gen.SeedVertex(rng))
		traversed += st.TraversedNeighbors
	}
	b.ReportMetric(float64(traversed)/float64(b.N), "traversed/op")
}

// BenchmarkFig4dDistributedHops sweeps [nodes × hops] like Fig. 4(d).
func BenchmarkFig4dDistributedHops(b *testing.B) {
	for _, tc := range []struct {
		nodes int
		spec  workload.DatasetSpec
	}{
		{1, workload.INTER()},
		{3, workload.INTER()},
		{3, workload.INTER3()},
	} {
		spec := tc.spec.Scale(benchScale)
		b.Run(fmt.Sprintf("nodes=%d/hops=%d", tc.nodes, len(spec.QueryHops)), func(b *testing.B) {
			d, gen, plan := loadedBenchBaseline(b, spec, tc.nodes, sampling.TopK)
			defer d.Close()
			rng := rand.New(rand.NewSource(4))
			rpcs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := d.Execute(plan, gen.SeedVertex(rng))
				if err != nil {
					b.Fatal(err)
				}
				rpcs += st.RPCCalls
			}
			b.ReportMetric(float64(rpcs)/float64(b.N), "rpc/op")
		})
	}
}

// BenchmarkFig9ServingThroughput compares one sampling query on Helios vs
// the baselines (the Fig. 9 unit of work).
func BenchmarkFig9ServingThroughput(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	b.Run("Helios/TopK", func(b *testing.B) {
		c, gen := loadedBenchCluster(b, spec, sampling.TopK, 2, 2)
		defer c.Close()
		rng := rand.New(rand.NewSource(5))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Sample(0, gen.SeedVertex(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GraphDB-Dist/TopK", func(b *testing.B) {
		d, gen, plan := loadedBenchBaseline(b, spec, 2, sampling.TopK)
		defer d.Close()
		rng := rand.New(rand.NewSource(5))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.Execute(plan, gen.SeedVertex(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10ServingLatency measures Helios serving under parallel
// closed-loop clients (the Fig. 10 latency path).
func BenchmarkFig10ServingLatency(b *testing.B) {
	c, gen := loadedBenchCluster(b, workload.INTER().Scale(benchScale), sampling.Random, 2, 2)
	defer c.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(6))
		for pb.Next() {
			if _, err := c.Sample(0, gen.SeedVertex(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig11IngestThroughput measures Helios update ingestion
// (append + pre-sampling pipeline; drained in cleanup).
func BenchmarkFig11IngestThroughput(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	gen, _ := workload.NewGenerator(spec)
	q, _ := gen.BuildQuery(sampling.Random)
	c := benchCluster(b, Options{Samplers: 2, Servers: 2, Schema: gen.Schema(), CompiledQueries: []Query{q}})
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, ok := gen.Next()
		if !ok {
			b.StopTimer()
			gen, _ = workload.NewGenerator(spec)
			b.StartTimer()
			u, _ = gen.Next()
		}
		if err := c.Ingest(u); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.WaitQuiesce(2 * time.Minute)
}

// BenchmarkFig12Separation serves while a background ingest stream runs —
// the sampling/serving isolation property.
func BenchmarkFig12Separation(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	c, gen := loadedBenchCluster(b, spec, sampling.Random, 2, 2)
	defer c.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		bg, _ := workload.NewGenerator(spec)
		workload.ReplayRate(bg, c.Ingest, 20000, time.Hour, stop)
	}()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Sample(0, gen.SeedVertex(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13SamplingScalability sweeps sampling-thread counts
// (scale-up requires >1 core to show speedup; the knob and path are
// exercised regardless).
func BenchmarkFig13SamplingScalability(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	for _, threads := range []int{4, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			gen, _ := workload.NewGenerator(spec)
			q, _ := gen.BuildQuery(sampling.Random)
			c := benchCluster(b, Options{Samplers: 2, Servers: 2, Schema: gen.Schema(),
				CompiledQueries: []Query{q}, SampleThreads: threads})
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, ok := gen.Next()
				if !ok {
					b.StopTimer()
					gen, _ = workload.NewGenerator(spec)
					b.StartTimer()
					u, _ = gen.Next()
				}
				if err := c.Ingest(u); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			c.WaitQuiesce(2 * time.Minute)
		})
	}
}

// BenchmarkFig14ServingScalability sweeps serving-thread counts through the
// serving pool (Submit path).
func BenchmarkFig14ServingScalability(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	for _, threads := range []int{4, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			gen, _ := workload.NewGenerator(spec)
			q, _ := gen.BuildQuery(sampling.Random)
			c := benchCluster(b, Options{Samplers: 2, Servers: 2, Schema: gen.Schema(),
				CompiledQueries: []Query{q}, ServeThreads: threads})
			defer c.Close()
			if _, err := workload.ReplayAll(gen, c.Ingest); err != nil {
				b.Fatal(err)
			}
			if err := c.WaitQuiesce(2 * time.Minute); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp := make(chan servingResponse, 1)
					c.Submit(servingRequest{Query: 0, Seed: gen.SeedVertex(rng), Resp: resp})
					if r := <-resp; r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			})
		})
	}
}

// BenchmarkFig15SamplingHops compares 2-hop and 3-hop serving cost.
func BenchmarkFig15SamplingHops(b *testing.B) {
	for _, spec := range []workload.DatasetSpec{workload.INTER(), workload.INTER3()} {
		spec := spec.Scale(benchScale)
		b.Run(fmt.Sprintf("hops=%d", len(spec.QueryHops)), func(b *testing.B) {
			c, gen := loadedBenchCluster(b, spec, sampling.Random, 2, 2)
			defer c.Close()
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Sample(0, gen.SeedVertex(rng)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16CacheRatio reports the per-node cache footprint ratio while
// measuring cache-backed sampling.
func BenchmarkFig16CacheRatio(b *testing.B) {
	for _, servers := range []int{1, 4} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			spec := workload.INTER().Scale(benchScale)
			c, gen := loadedBenchCluster(b, spec, sampling.Random, 2, servers)
			defer c.Close()
			var total int64
			for _, w := range c.Servers {
				total += w.CacheBytes()
			}
			var dataset int64
			for _, v := range spec.Vertices {
				dataset += int64(v.Count) * int64(4*v.FeatureDim+8)
			}
			for _, e := range spec.Edges {
				dataset += int64(e.Count) * 24
			}
			b.ReportMetric(float64(total)/float64(servers)/float64(dataset)*100, "cache-ratio-%")
			rng := rand.New(rand.NewSource(10))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Sample(0, gen.SeedVertex(rng))
			}
		})
	}
}

// BenchmarkFig17IngestLatency reports the observed update→cache latency.
func BenchmarkFig17IngestLatency(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	gen, _ := workload.NewGenerator(spec)
	q, _ := gen.BuildQuery(sampling.Random)
	c := benchCluster(b, Options{Samplers: 2, Servers: 2, Schema: gen.Schema(), CompiledQueries: []Query{q}})
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, ok := gen.Next()
		if !ok {
			break
		}
		if err := c.Ingest(u); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := c.WaitQuiesce(2 * time.Minute); err != nil {
		b.Fatal(err)
	}
	var worst int64
	for _, w := range c.Servers {
		if p99 := w.Stats().IngestLatency.P99; p99 > worst {
			worst = p99
		}
	}
	b.ReportMetric(float64(worst)/1e6, "ingest-p99-ms")
}

// BenchmarkFig18ConsistencyAccuracy measures link-prediction scoring (the
// Fig. 18 serving-side unit of work).
func BenchmarkFig18ConsistencyAccuracy(b *testing.B) {
	const dim = 8
	model := gnn.NewLinkPredictor([]int{dim, 16, 8}, 1)
	rng := rand.New(rand.NewSource(11))
	feat := func() []float32 {
		f := make([]float32, dim)
		for i := range f {
			f[i] = rng.Float32()
		}
		return f
	}
	user := &gnn.Tree{Dim: dim, Depths: [][]gnn.TreeNode{
		{{V: 1, Feat: feat(), Children: []int{0, 1, 2}}},
		{{V: 2, Feat: feat()}, {V: 3, Feat: feat()}, {V: 4, Feat: feat()}},
	}}
	item := gnn.LeafTree(9, feat(), dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Score(user, item)
	}
}

// BenchmarkFig19OnlineInference measures the full pipeline: cache sampling
// + tree build + RPC model forward.
func BenchmarkFig19OnlineInference(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	c, gen := loadedBenchCluster(b, spec, sampling.Random, 2, 2)
	defer c.Close()
	dim := spec.Vertices[0].FeatureDim
	enc := gnn.NewEncoder([]int{dim, 16, 8}, 1)
	srv := gnn.NewServer(enc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	model, err := gnn.DialModel(addr, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer model.Close()
	rng := rand.New(rand.NewSource(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Sample(0, gen.SeedVertex(rng))
		if err != nil {
			b.Fatal(err)
		}
		edges := make([]gnn.HopEdge, len(res.Edges))
		for j, e := range res.Edges {
			edges[j] = gnn.HopEdge{Hop: e.Hop, Parent: e.Parent, Child: e.Child}
		}
		if _, err := model.Embed(gnn.BuildTree(res.Layers, edges, res.Features, dim)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAfterWrite measures an immediate read racing its own
// update's propagation (§7.4).
func BenchmarkReadAfterWrite(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	c, gen := loadedBenchCluster(b, spec, sampling.TopK, 2, 2)
	defer c.Close()
	schema := gen.Schema()
	has, _ := schema.EdgeTypeID("Has")
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := gen.SeedVertex(rng)
		err := c.Ingest(graph.NewEdgeUpdate(graph.Edge{
			Src: seed, Dst: workload.VertexIDFor(1, rng.Intn(100)), Type: has,
			Ts: graph.Timestamp(1 << 40), // newer than everything
		}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Sample(0, seed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationSnapshotPush compares Helios's cache-lookup serving
// against recompute-on-read (the ad-hoc executor) over identical data.
func BenchmarkAblationSnapshotPush(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	b.Run("cache-lookup", func(b *testing.B) {
		c, gen := loadedBenchCluster(b, spec, sampling.TopK, 2, 2)
		defer c.Close()
		rng := rand.New(rand.NewSource(14))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Sample(0, gen.SeedVertex(rng))
		}
	})
	b.Run("recompute-on-read", func(b *testing.B) {
		gen, _ := workload.NewGenerator(spec)
		store := graphdb.NewStore(graphdb.StoreOptions{})
		for {
			u, ok := gen.Next()
			if !ok {
				break
			}
			store.ApplyUpdate(u)
		}
		q, _ := gen.BuildQuery(sampling.TopK)
		plan, _ := query.Decompose(0, q, gen.Schema())
		exec := graphdb.NewExecutor(store, 1)
		rng := rand.New(rand.NewSource(14))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec.Execute(plan, gen.SeedVertex(rng))
		}
	})
}

// BenchmarkAblationKVBloom compares absent-key lookups on disk runs with a
// healthy bloom filter vs a crippled one.
func BenchmarkAblationKVBloom(b *testing.B) {
	for _, bits := range []int{10, 1} {
		b.Run(fmt.Sprintf("bloomBits=%d", bits), func(b *testing.B) {
			db, err := kvstore.Open(kvstore.Options{Dir: b.TempDir(), BloomBitsPerKey: bits})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 50000; i++ {
				db.Put([]byte(fmt.Sprintf("key-%06d", i)), make([]byte, 64))
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Get([]byte(fmt.Sprintf("absent-%06d", i)))
			}
		})
	}
}

// BenchmarkAblationQueryCache measures the Neo4j-style query cache under
// update churn: the hit ratio collapses, so the "cached" path degenerates
// to recompute (the §1 motivation for query-aware caching instead).
func BenchmarkAblationQueryCache(b *testing.B) {
	spec := workload.INTER().Scale(benchScale)
	gen, _ := workload.NewGenerator(spec)
	store := graphdb.NewStore(graphdb.StoreOptions{})
	var updates []graph.Update
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		store.ApplyUpdate(u)
		if u.Kind == graph.UpdateEdge {
			updates = append(updates, u)
		}
	}
	q, _ := gen.BuildQuery(sampling.TopK)
	plan, _ := query.Decompose(0, q, gen.Schema())
	cached := graphdb.NewCachedExecutor(graphdb.NewExecutor(store, 1), store)
	rng := rand.New(rand.NewSource(15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One update per query — the dynamic-graph regime.
		store.ApplyUpdate(updates[i%len(updates)])
		cached.Execute(plan, gen.SeedVertex(rng))
	}
	b.StopTimer()
	b.ReportMetric(cached.HitRatio()*100, "hit-%")
}

type (
	servingRequest  = serving.Request
	servingResponse = serving.Response
)
