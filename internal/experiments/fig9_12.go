package experiments

import (
	"time"

	"helios/internal/graphdb"
	"helios/internal/sampling"
	"helios/internal/workload"
)

// ServingPoint is one (system, dataset, strategy, concurrency) measurement
// of serving throughput and latency — the unit of Figs. 9 and 10.
type ServingPoint struct {
	System      string
	Dataset     string
	Strategy    string
	Concurrency int
	QPS         float64
	AvgMS       float64
	P99MS       float64
	Errors      int64
}

// Fig9And10 sweeps request concurrency over Helios and the two baselines
// with TopK and Random queries on the billion-scale shapes (BI, INTER,
// FIN), reporting end-to-end serving throughput (Fig. 9) and latency
// (Fig. 10).
func Fig9And10(cfg Config) ([]ServingPoint, error) {
	cfg = cfg.Defaults()
	cfg.printf("Fig 9/10: serving throughput and latency, Helios vs baselines\n")
	cfg.printf("%-16s %-8s %-8s %6s %12s %10s %10s\n",
		"System", "Dataset", "Strat", "conc", "QPS", "avg(ms)", "p99(ms)")
	var out []ServingPoint
	for _, spec := range []workload.DatasetSpec{workload.BI(), workload.INTER(), workload.FIN()} {
		spec = spec.Scale(cfg.Scale)
		for _, strat := range []sampling.Strategy{sampling.TopK, sampling.Random} {
			pts, err := servingSweep(cfg, spec, strat)
			if err != nil {
				return nil, err
			}
			out = append(out, pts...)
		}
	}
	return out, nil
}

func servingSweep(cfg Config, spec workload.DatasetSpec, strat sampling.Strategy) ([]ServingPoint, error) {
	var out []ServingPoint

	// Helios.
	hc, gen, err := loadedHelios(cfg, spec, strat, cfg.Samplers, cfg.Servers, 0)
	if err != nil {
		return nil, err
	}
	pick := seedPicker(gen, cfg.Seed)
	for _, conc := range cfg.Concurrencies {
		st := workload.RunClosedLoop(conc, cfg.Duration, func(int) error {
			_, err := hc.Sample(0, pick())
			return err
		})
		p := point("Helios", spec.Name, strat, conc, st)
		out = append(out, p)
		printPoint(cfg, p)
	}
	hc.Close()

	// Distributed baseline.
	d, gen, plan, err := loadedBaseline(cfg, spec, cfg.BaselineNodes)
	if err != nil {
		return nil, err
	}
	plan, err = planFor(gen, strat)
	if err != nil {
		return nil, err
	}
	pick = seedPicker(gen, cfg.Seed)
	for _, conc := range cfg.Concurrencies {
		st := workload.RunClosedLoop(conc, cfg.Duration, func(int) error {
			_, _, err := d.Execute(plan, pick())
			return err
		})
		p := point("GraphDB-Dist", spec.Name, strat, conc, st)
		out = append(out, p)
		printPoint(cfg, p)
	}
	d.Close()

	// Single-node baseline.
	store, gen, err := loadedSingleNode(spec)
	if err != nil {
		return nil, err
	}
	plan, err = planFor(gen, strat)
	if err != nil {
		return nil, err
	}
	ex := graphdb.NewExecutor(store, cfg.Seed)
	pick = seedPicker(gen, cfg.Seed)
	for _, conc := range cfg.Concurrencies {
		st := workload.RunClosedLoop(conc, cfg.Duration, func(int) error {
			_, _ = ex.Execute(plan, pick())
			return nil
		})
		p := point("GraphDB-Single", spec.Name, strat, conc, st)
		out = append(out, p)
		printPoint(cfg, p)
	}
	return out, nil
}

func point(system, dataset string, strat sampling.Strategy, conc int, st workload.LoadStats) ServingPoint {
	return ServingPoint{
		System:      system,
		Dataset:     dataset,
		Strategy:    strat.String(),
		Concurrency: conc,
		QPS:         st.QPS,
		AvgMS:       msf(st.Latency.Mean),
		P99MS:       ms(st.Latency.P99),
		Errors:      st.Errors,
	}
}

func printPoint(cfg Config, p ServingPoint) {
	cfg.printf("%-16s %-8s %-8s %6d %12.0f %10.3f %10.3f\n",
		p.System, p.Dataset, p.Strategy, p.Concurrency, p.QPS, p.AvgMS, p.P99MS)
}

// IngestPoint is one system's update-ingestion throughput (Fig. 11).
type IngestPoint struct {
	System    string
	Dataset   string
	RecordsPS float64
}

// Fig11 measures graph-update ingestion throughput: Helios with TopK and
// Random pre-sampling (eventual consistency) against the baselines' strong
// consistency ingestion.
func Fig11(cfg Config) ([]IngestPoint, error) {
	cfg = cfg.Defaults()
	cfg.printf("Fig 11: graph update ingestion throughput (records/s)\n")
	cfg.printf("%-18s %-8s %14s\n", "System", "Dataset", "records/s")
	var out []IngestPoint
	for _, spec := range []workload.DatasetSpec{workload.BI(), workload.INTER(), workload.FIN()} {
		spec = spec.Scale(cfg.Scale)

		for _, strat := range []sampling.Strategy{sampling.TopK, sampling.Random} {
			gen, err := workload.NewGenerator(spec)
			if err != nil {
				return nil, err
			}
			q, err := gen.BuildQuery(strat)
			if err != nil {
				return nil, err
			}
			c, err := bootHelios(cfg, gen, q, cfg.Samplers, cfg.Servers, 0, 0)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			n, err := workload.ReplayAll(gen, c.Ingest)
			if err != nil {
				c.Close()
				return nil, err
			}
			if err := c.WaitQuiesce(5 * time.Minute); err != nil {
				c.Close()
				return nil, err
			}
			elapsed := time.Since(t0).Seconds()
			c.Close()
			p := IngestPoint{System: "Helios-" + strat.String(), Dataset: spec.Name, RecordsPS: float64(n) / elapsed}
			out = append(out, p)
			cfg.printf("%-18s %-8s %14.0f\n", p.System, p.Dataset, p.RecordsPS)
		}

		// Distributed baseline: synchronous strongly consistent ingestion,
		// driven by parallel loaders like a real bulk writer.
		d, err := graphdb.NewDist(graphdb.DistOptions{Nodes: cfg.BaselineNodes, Seed: cfg.Seed, NetDelay: cfg.NetDelay})
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		n, elapsed, err := parallelIngest(gen, 8, d.Ingest)
		d.Close()
		if err != nil {
			return nil, err
		}
		p := IngestPoint{System: "GraphDB-Dist", Dataset: spec.Name, RecordsPS: float64(n) / elapsed}
		out = append(out, p)
		cfg.printf("%-18s %-8s %14.0f\n", p.System, p.Dataset, p.RecordsPS)

		// Single-node baseline.
		store := graphdb.NewStore(graphdb.StoreOptions{})
		gen, err = workload.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		n, elapsed, err = parallelIngest(gen, 8, func(u updateT) error {
			store.ApplyUpdate(u)
			return nil
		})
		if err != nil {
			return nil, err
		}
		p = IngestPoint{System: "GraphDB-Single", Dataset: spec.Name, RecordsPS: float64(n) / elapsed}
		out = append(out, p)
		cfg.printf("%-18s %-8s %14.0f\n", p.System, p.Dataset, p.RecordsPS)
	}
	return out, nil
}

// SeparationPoint is one ingestion-rate step of Fig. 12.
type SeparationPoint struct {
	IngestRatePS float64
	QPS          float64
	AvgMS        float64
	P99MS        float64
}

// Fig12 serves a fixed closed-loop load while sweeping the background
// graph-update ingestion rate; sampling/serving separation keeps QPS and
// latency flat.
func Fig12(cfg Config) ([]SeparationPoint, error) {
	cfg = cfg.Defaults()
	spec := workload.INTER().Scale(cfg.Scale)
	c, gen, err := loadedHelios(cfg, spec, sampling.Random, cfg.Samplers, cfg.Servers, 0)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	pick := seedPicker(gen, cfg.Seed)
	conc := cfg.Concurrencies[len(cfg.Concurrencies)-1]

	cfg.printf("Fig 12: serving stability vs ingestion rate (INTER, %d clients)\n", conc)
	cfg.printf("%14s %12s %10s %10s\n", "ingest rate/s", "QPS", "avg(ms)", "p99(ms)")
	var out []SeparationPoint
	for _, rate := range []float64{0, 20_000, 100_000, 400_000} {
		// A fresh generator keeps feeding updates of the same shape.
		bgGen, err := workload.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		if rate > 0 {
			go func() {
				defer close(done)
				workload.ReplayRate(bgGen, c.Ingest, rate, cfg.Duration+time.Second, stop)
			}()
		} else {
			close(done)
		}
		st := workload.RunClosedLoop(conc, cfg.Duration, func(int) error {
			_, err := c.Sample(0, pick())
			return err
		})
		close(stop)
		<-done
		p := SeparationPoint{
			IngestRatePS: rate,
			QPS:          st.QPS,
			AvgMS:        msf(st.Latency.Mean),
			P99MS:        ms(st.Latency.P99),
		}
		out = append(out, p)
		cfg.printf("%14.0f %12.0f %10.3f %10.3f\n", p.IngestRatePS, p.QPS, p.AvgMS, p.P99MS)
	}
	return out, nil
}
