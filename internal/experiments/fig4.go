package experiments

import (
	"math/rand"
	"sort"
	"time"

	"helios/internal/gnn"
	"helios/internal/graphdb"
	"helios/internal/obs"
	"helios/internal/sampling"
	"helios/internal/workload"
)

// Fig4aResult is the end-to-end latency breakdown on the baseline (graph
// sampling vs model inference), Fig. 4(a).
type Fig4aResult struct {
	System          string
	SamplingMeanMS  float64
	InferenceMeanMS float64
	SamplingShare   float64 // fraction of end-to-end time spent sampling
	EndToEndP99MS   float64
}

// Fig4a runs online inference on the graph-database baseline (INTER shape,
// 2-hop TopK [25,10]) with a real model forward per request and reports how
// the latency splits between sampling and inference. The paper measures
// >90% in sampling.
func Fig4a(cfg Config) ([]Fig4aResult, error) {
	cfg = cfg.Defaults()
	spec := workload.INTER().Scale(cfg.Scale)
	var out []Fig4aResult
	cfg.printf("Fig 4(a): E2E latency breakdown on graph-DB baselines (INTER, 2-hop TopK)\n")
	cfg.printf("%-16s %14s %14s %10s %12s\n", "System", "sampling(ms)", "inference(ms)", "sampling%", "e2e p99(ms)")
	for _, sys := range []string{"GraphDB-Dist", "GraphDB-Single"} {
		res, err := fig4aOne(cfg, spec, sys)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		cfg.printf("%-16s %14.3f %14.3f %9.1f%% %12.3f\n",
			res.System, res.SamplingMeanMS, res.InferenceMeanMS, res.SamplingShare*100, res.EndToEndP99MS)
	}
	return out, nil
}

func fig4aOne(cfg Config, spec workload.DatasetSpec, sys string) (Fig4aResult, error) {
	var exec func(seed int64) (sampleNS int64, tree *gnn.Tree, err error)
	var gen *workload.Generator

	// Model stack shared by both systems: a 2-layer encoder behind RPC.
	dim := spec.Vertices[0].FeatureDim
	enc := gnn.NewEncoder([]int{dim, 32, 16}, cfg.Seed)
	srv := gnn.NewServer(enc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return Fig4aResult{}, err
	}
	defer srv.Close()
	model, err := gnn.DialModel(addr, 0)
	if err != nil {
		return Fig4aResult{}, err
	}
	defer model.Close()

	switch sys {
	case "GraphDB-Dist":
		d, g, plan, err := loadedBaseline(cfg, spec, cfg.BaselineNodes)
		if err != nil {
			return Fig4aResult{}, err
		}
		defer d.Close()
		gen = g
		pick := seedPicker(gen, cfg.Seed)
		exec = func(int64) (int64, *gnn.Tree, error) {
			t0 := time.Now()
			res, _, err := d.Execute(plan, pick())
			if err != nil {
				return 0, nil, err
			}
			tree := treeFromGraphDB(res, dim)
			return time.Since(t0).Nanoseconds(), tree, nil
		}
	default: // GraphDB-Single
		store, g, err := loadedSingleNode(spec)
		if err != nil {
			return Fig4aResult{}, err
		}
		gen = g
		plan, err := planFor(gen, sampling.TopK)
		if err != nil {
			return Fig4aResult{}, err
		}
		ex := graphdb.NewExecutor(store, cfg.Seed)
		pick := seedPicker(gen, cfg.Seed)
		exec = func(int64) (int64, *gnn.Tree, error) {
			t0 := time.Now()
			res, _ := ex.Execute(plan, pick())
			tree := treeFromGraphDB(res, dim)
			return time.Since(t0).Nanoseconds(), tree, nil
		}
	}

	var sampleHist, inferHist, e2eHist obs.Histogram
	concurrency := cfg.Concurrencies[len(cfg.Concurrencies)-1]
	workload.RunClosedLoop(concurrency, cfg.Duration, func(client int) error {
		t0 := time.Now()
		sampleNS, tree, err := exec(int64(client))
		if err != nil {
			return err
		}
		tInfer := time.Now()
		if _, err := model.Embed(tree); err != nil {
			return err
		}
		inferHist.Observe(time.Since(tInfer).Nanoseconds(), 0)
		sampleHist.Observe(sampleNS, 0)
		e2eHist.Observe(time.Since(t0).Nanoseconds(), 0)
		return nil
	})

	sm, im := sampleHist.Mean(), inferHist.Mean()
	return Fig4aResult{
		System:          sys,
		SamplingMeanMS:  msf(sm),
		InferenceMeanMS: msf(im),
		SamplingShare:   ratio(sm, sm+im),
		EndToEndP99MS:   ms(e2eHist.Quantile(0.99)),
	}, nil
}

// Fig4bResult compares average and P99 sampling latency (Fig. 4(b)).
type Fig4bResult struct {
	System string
	AvgMS  float64
	P99MS  float64
}

// Fig4b measures the baseline's tail behaviour under concurrency: P99 far
// above average.
func Fig4b(cfg Config) ([]Fig4bResult, error) {
	cfg = cfg.Defaults()
	spec := workload.INTER().Scale(cfg.Scale)
	cfg.printf("Fig 4(b): baseline avg vs P99 sampling latency (INTER, 2-hop TopK)\n")
	cfg.printf("%-16s %10s %10s\n", "System", "avg(ms)", "p99(ms)")
	var out []Fig4bResult
	for _, nodes := range []int{cfg.BaselineNodes} {
		d, gen, plan, err := loadedBaseline(cfg, spec, nodes)
		if err != nil {
			return nil, err
		}
		pick := seedPicker(gen, cfg.Seed)
		st := workload.RunClosedLoop(cfg.Concurrencies[len(cfg.Concurrencies)-1], cfg.Duration, func(int) error {
			_, _, err := d.Execute(plan, pick())
			return err
		})
		d.Close()
		r := Fig4bResult{System: "GraphDB-Dist", AvgMS: msf(st.Latency.Mean), P99MS: ms(st.Latency.P99)}
		out = append(out, r)
		cfg.printf("%-16s %10.3f %10.3f\n", r.System, r.AvgMS, r.P99MS)
	}
	// Single-node variant.
	store, gen, err := loadedSingleNode(spec)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(gen, sampling.TopK)
	if err != nil {
		return nil, err
	}
	ex := graphdb.NewExecutor(store, cfg.Seed)
	pick := seedPicker(gen, cfg.Seed)
	st := workload.RunClosedLoop(cfg.Concurrencies[len(cfg.Concurrencies)-1], cfg.Duration, func(int) error {
		_, _ = ex.Execute(plan, pick())
		return nil
	})
	r := Fig4bResult{System: "GraphDB-Single", AvgMS: msf(st.Latency.Mean), P99MS: ms(st.Latency.P99)}
	out = append(out, r)
	cfg.printf("%-16s %10.3f %10.3f\n", r.System, r.AvgMS, r.P99MS)
	return out, nil
}

// Fig4cBucket is one decade of traversed-neighbour counts with its mean
// latency — the scatter of Fig. 4(c) summarized.
type Fig4cBucket struct {
	MaxTraversed  int
	Queries       int
	MeanLatencyMS float64
}

// Fig4c executes sequential single-node TopK queries over many seeds and
// correlates traversed-neighbour counts with latency (skew → spread).
func Fig4c(cfg Config) ([]Fig4cBucket, error) {
	cfg = cfg.Defaults()
	spec := workload.INTER().Scale(cfg.Scale)
	store, gen, err := loadedSingleNode(spec)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(gen, sampling.TopK)
	if err != nil {
		return nil, err
	}
	ex := graphdb.NewExecutor(store, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	type point struct {
		traversed int
		ns        int64
	}
	n := 2000
	points := make([]point, 0, n)
	for i := 0; i < n; i++ {
		seed := gen.SeedVertex(rng)
		t0 := time.Now()
		_, st := ex.Execute(plan, seed)
		points = append(points, point{traversed: st.TraversedNeighbors, ns: time.Since(t0).Nanoseconds()})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].traversed < points[j].traversed })
	// Quartile buckets by traversal rank: the Fig. 4(c) correlation shows
	// as rising mean latency from the lightest to the heaviest quartile.
	var buckets []Fig4cBucket
	const quartiles = 4
	for qi := 0; qi < quartiles; qi++ {
		lo, hi := qi*len(points)/quartiles, (qi+1)*len(points)/quartiles
		if hi <= lo {
			continue
		}
		var sum int64
		for _, pt := range points[lo:hi] {
			sum += pt.ns
		}
		buckets = append(buckets, Fig4cBucket{
			MaxTraversed:  points[hi-1].traversed,
			Queries:       hi - lo,
			MeanLatencyMS: msf(float64(sum) / float64(hi-lo)),
		})
	}
	cfg.printf("Fig 4(c): traversed neighbours vs latency (single node, sequential TopK)\n")
	cfg.printf("%16s %10s %14s\n", "traversed ≤", "queries", "mean lat (ms)")
	for _, b := range buckets {
		cfg.printf("%16d %10d %14.4f\n", b.MaxTraversed, b.Queries, b.MeanLatencyMS)
	}
	return buckets, nil
}

// Fig4dResult is one (cluster size, hops) configuration's latency.
type Fig4dResult struct {
	Nodes int
	Hops  int
	AvgMS float64
	RPCs  float64
}

// Fig4d measures distributed baseline latency across cluster size and hop
// count (the paper's [x-node, y-hop] grid).
func Fig4d(cfg Config) ([]Fig4dResult, error) {
	cfg = cfg.Defaults()
	cfg.printf("Fig 4(d): distributed sampling latency by [nodes, hops] (INTER)\n")
	cfg.printf("%8s %6s %10s %10s\n", "nodes", "hops", "avg(ms)", "rpc/query")
	var out []Fig4dResult
	for _, tc := range []struct {
		nodes int
		spec  workload.DatasetSpec
	}{
		{1, workload.INTER()},
		{cfg.BaselineNodes, workload.INTER()},
		{cfg.BaselineNodes, workload.INTER3()},
	} {
		spec := tc.spec.Scale(cfg.Scale)
		d, gen, plan, err := loadedBaseline(cfg, spec, tc.nodes)
		if err != nil {
			return nil, err
		}
		pick := seedPicker(gen, cfg.Seed)
		var rpcs obs.Counter
		var lat obs.Histogram
		workload.RunClosedLoop(8, cfg.Duration, func(int) error {
			t0 := time.Now()
			_, st, err := d.Execute(plan, pick())
			if err != nil {
				return err
			}
			lat.Observe(time.Since(t0).Nanoseconds(), 0)
			rpcs.Add(int64(st.RPCCalls))
			return nil
		})
		d.Close()
		r := Fig4dResult{
			Nodes: tc.nodes,
			Hops:  len(plan.OneHops),
			AvgMS: msf(lat.Mean()),
		}
		if lat.Count() > 0 {
			r.RPCs = float64(rpcs.Value()) / float64(lat.Count())
		}
		out = append(out, r)
		cfg.printf("%8d %6d %10.3f %10.1f\n", r.Nodes, r.Hops, r.AvgMS, r.RPCs)
	}
	return out, nil
}
