package experiments

import (
	"fmt"
	"time"

	"helios/internal/rpc"
	"helios/internal/sampling"
	"helios/internal/serving"
	"helios/internal/workload"
)

// ScalePoint is one scalability measurement (Figs. 13 and 14).
type ScalePoint struct {
	Axis  string // "threads" or "workers"
	Value int
	Rate  float64 // records/s (sampling) or QPS (serving)
	AvgMS float64 // serving only
	P99MS float64 // serving only
}

// Fig13 measures pre-sampling scalability on INTER: (a) scale-up by
// sampling threads per worker, (b) scale-out by sampling workers.
func Fig13(cfg Config) ([]ScalePoint, error) {
	cfg = cfg.Defaults()
	spec := workload.INTER().Scale(cfg.Scale)
	cfg.printf("Fig 13: pre-sampling scalability (INTER, Random)\n")
	cfg.printf("%-10s %8s %14s\n", "axis", "value", "records/s")
	var out []ScalePoint

	ingestRate := func(samplers, threads int) (float64, error) {
		gen, err := workload.NewGenerator(spec)
		if err != nil {
			return 0, err
		}
		q, err := gen.BuildQuery(sampling.Random)
		if err != nil {
			return 0, err
		}
		c, err := bootHelios(cfg, gen, q, samplers, cfg.Servers, threads, 0)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		t0 := time.Now()
		n, err := workload.ReplayAll(gen, c.Ingest)
		if err != nil {
			return 0, err
		}
		if err := c.WaitQuiesce(5 * time.Minute); err != nil {
			return 0, err
		}
		return float64(n) / time.Since(t0).Seconds(), nil
	}

	for _, threads := range []int{4, 8, 16} {
		r, err := ingestRate(cfg.Samplers, threads)
		if err != nil {
			return nil, err
		}
		p := ScalePoint{Axis: "threads", Value: threads, Rate: r}
		out = append(out, p)
		cfg.printf("%-10s %8d %14.0f\n", p.Axis, p.Value, p.Rate)
	}
	for _, workers := range []int{1, 2, 4} {
		r, err := ingestRate(workers, 16)
		if err != nil {
			return nil, err
		}
		p := ScalePoint{Axis: "workers", Value: workers, Rate: r}
		out = append(out, p)
		cfg.printf("%-10s %8d %14.0f\n", p.Axis, p.Value, p.Rate)
	}
	return out, nil
}

// Fig14 measures serving scalability on INTER: (a) scale-up by serving
// threads, (b) scale-out by serving workers, with the Random query
// (§7.3.2: serving cost is strategy-independent). Each worker is driven
// through its admission path by at most as many closed-loop clients as it
// admits and queues (2 × threads), so a point measures a saturated serve
// pool, not a shed storm; a failed call fails the figure.
func Fig14(cfg Config) ([]ScalePoint, error) {
	cfg = cfg.Defaults()
	spec := workload.INTER().Scale(cfg.Scale)
	conc := cfg.Concurrencies[len(cfg.Concurrencies)-1]
	cfg.printf("Fig 14: serving scalability (INTER, Random, up to %d clients, 2 × threads per worker)\n", conc)
	cfg.printf("%-10s %8s %12s %10s %10s\n", "axis", "value", "QPS", "avg(ms)", "p99(ms)")
	var out []ScalePoint

	measure := func(servers, threads int) (ScalePoint, error) {
		c, gen, err := loadedHelios(cfg, spec, sampling.Random, cfg.Samplers, servers, threads)
		if err != nil {
			return ScalePoint{}, err
		}
		defer c.Close()
		pick := seedPicker(gen, cfg.Seed)
		// Client i sends seeds owned by worker i mod servers, through the
		// admission path so the thread knob binds.
		st := workload.RunClosedLoop(min(conc, 2*threads*servers), cfg.Duration, func(client int) error {
			seed := pick()
			w := c.Route(seed)
			for w.ID() != client%servers {
				seed = pick()
				w = c.Route(seed)
			}
			out, err := w.ServeBatch(rpc.Ctx{}, []serving.BatchItem{{Query: 0, Seed: seed}})
			if err != nil {
				return err
			}
			out[0].Release()
			return out[0].Err
		})
		if st.Errors > 0 {
			return ScalePoint{}, fmt.Errorf("fig 14: %d of %d calls failed", st.Errors, st.Errors+st.Requests)
		}
		return ScalePoint{Rate: st.QPS, AvgMS: msf(st.Latency.Mean), P99MS: ms(st.Latency.P99)}, nil
	}

	for _, threads := range []int{4, 8, 16} {
		p, err := measure(cfg.Servers, threads)
		if err != nil {
			return nil, err
		}
		p.Axis, p.Value = "threads", threads
		out = append(out, p)
		cfg.printf("%-10s %8d %12.0f %10.3f %10.3f\n", p.Axis, p.Value, p.Rate, p.AvgMS, p.P99MS)
	}
	for _, servers := range []int{1, 2, 4} {
		p, err := measure(servers, 16)
		if err != nil {
			return nil, err
		}
		p.Axis, p.Value = "workers", servers
		out = append(out, p)
		cfg.printf("%-10s %8d %12.0f %10.3f %10.3f\n", p.Axis, p.Value, p.Rate, p.AvgMS, p.P99MS)
	}
	return out, nil
}

// HopPoint is one (hops, concurrency) point of Fig. 15.
type HopPoint struct {
	Hops        int
	Concurrency int
	QPS         float64
	AvgMS       float64
	P99MS       float64
}

// Fig15 compares the 2-hop and 3-hop INTER queries across concurrency.
func Fig15(cfg Config) ([]HopPoint, error) {
	cfg = cfg.Defaults()
	cfg.printf("Fig 15: 2-hop vs 3-hop serving (INTER, Random)\n")
	cfg.printf("%6s %6s %12s %10s %10s\n", "hops", "conc", "QPS", "avg(ms)", "p99(ms)")
	var out []HopPoint
	for _, spec := range []workload.DatasetSpec{workload.INTER(), workload.INTER3()} {
		spec = spec.Scale(cfg.Scale)
		c, gen, err := loadedHelios(cfg, spec, sampling.Random, cfg.Samplers, cfg.Servers, 0)
		if err != nil {
			return nil, err
		}
		pick := seedPicker(gen, cfg.Seed)
		for _, conc := range cfg.Concurrencies {
			st := workload.RunClosedLoop(conc, cfg.Duration, func(int) error {
				_, err := c.Sample(0, pick())
				return err
			})
			p := HopPoint{
				Hops:        len(spec.QueryHops),
				Concurrency: conc,
				QPS:         st.QPS,
				AvgMS:       msf(st.Latency.Mean),
				P99MS:       ms(st.Latency.P99),
			}
			out = append(out, p)
			cfg.printf("%6d %6d %12.0f %10.3f %10.3f\n", p.Hops, p.Concurrency, p.QPS, p.AvgMS, p.P99MS)
		}
		c.Close()
	}
	return out, nil
}

// CachePoint is one serving-node count's cache footprint (Fig. 16).
type CachePoint struct {
	Servers      int
	PerNodeBytes int64
	DatasetBytes int64
	PerNodeRatio float64
}

// Fig16 measures the per-node sample cache size as serving workers scale
// out; the paper reports 62% → 19% of the original dataset for 1 → 4.
func Fig16(cfg Config) ([]CachePoint, error) {
	cfg = cfg.Defaults()
	spec := workload.INTER().Scale(cfg.Scale)
	cfg.printf("Fig 16: cache ratio per serving node (INTER)\n")
	cfg.printf("%8s %16s %16s %10s\n", "servers", "per-node bytes", "dataset bytes", "ratio")
	var out []CachePoint
	for _, servers := range []int{1, 2, 4} {
		c, gen, err := loadedHelios(cfg, spec, sampling.Random, cfg.Samplers, servers, 0)
		if err != nil {
			return nil, err
		}
		dataset := datasetBytes(gen.Spec)
		var total int64
		for _, w := range c.Servers {
			total += w.CacheBytes()
		}
		c.Close()
		p := CachePoint{
			Servers:      servers,
			PerNodeBytes: total / int64(servers),
			DatasetBytes: dataset,
			PerNodeRatio: ratio(float64(total)/float64(servers), float64(dataset)),
		}
		out = append(out, p)
		cfg.printf("%8d %16d %16d %9.1f%%\n", p.Servers, p.PerNodeBytes, p.DatasetBytes, p.PerNodeRatio*100)
	}
	return out, nil
}

// datasetBytes approximates the raw dataset footprint: features plus edge
// records (src, dst, type, ts, weight ≈ 24 bytes as stored by the
// baseline's adjacency lists).
func datasetBytes(spec workload.DatasetSpec) int64 {
	var total int64
	for _, v := range spec.Vertices {
		total += int64(v.Count) * int64(4*v.FeatureDim+8)
	}
	for _, e := range spec.Edges {
		total += int64(e.Count) * 24
	}
	return total
}
