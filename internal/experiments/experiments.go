// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) against this repository's implementations: the Helios
// cluster, the graph-database baselines, the workload generators and the
// GNN model stack. Each experiment prints paper-style rows and returns its
// measurements so tests can assert the qualitative shape (who wins, by
// roughly what factor) without pinning absolute numbers.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/graph"
	"helios/internal/graphdb"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/sampler"
	"helios/internal/sampling"
	"helios/internal/serving"
	"helios/internal/workload"
)

// Config scales and targets an experiment run.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = the laptop-default shapes in
	// the workload package, ~1/10000 of the paper's).
	Scale float64
	// Duration bounds each measured load phase.
	Duration time.Duration
	// Concurrencies are the closed-loop client counts swept by the serving
	// experiments.
	Concurrencies []int
	// Samplers / Servers size Helios deployments (paper: 4 and 6).
	Samplers, Servers int
	// BaselineNodes sizes the distributed baseline (paper: 10).
	BaselineNodes int
	// NetDelay models datacenter RTT for the distributed baseline.
	NetDelay time.Duration
	// Seed drives all randomness.
	Seed int64
	// Out receives the printed tables.
	Out io.Writer
	// Metrics, when set, receives every Helios cluster's worker metrics
	// (helios-bench passes obs.Default() so -ops-addr serves them live).
	Metrics *obs.Registry
}

// Defaults fills unset fields with values that finish in seconds per
// experiment at Scale 0.1–1.
func (c Config) Defaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if len(c.Concurrencies) == 0 {
		c.Concurrencies = []int{10, 50, 200}
	}
	if c.Samplers == 0 {
		c.Samplers = 4
	}
	if c.Servers == 0 {
		c.Servers = 6
	}
	if c.BaselineNodes == 0 {
		c.BaselineNodes = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// loadedHelios builds a Helios cluster for spec (serveThreads sizes the
// serving pools, 0 = default), streams the whole dataset in, and waits for
// quiescence.
func loadedHelios(cfg Config, spec workload.DatasetSpec, strat sampling.Strategy, samplers, servers, serveThreads int) (*cluster.Local, *workload.Generator, error) {
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return nil, nil, err
	}
	q, err := gen.BuildQuery(strat)
	if err != nil {
		return nil, nil, err
	}
	c, err := bootHelios(cfg, gen, q, samplers, servers, 0, serveThreads)
	if err != nil {
		return nil, nil, err
	}
	if _, err := workload.ReplayAll(gen, c.Ingest); err != nil {
		c.Close()
		return nil, nil, err
	}
	if err := c.WaitQuiesce(5 * time.Minute); err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, gen, nil
}

// loadedBaseline builds the distributed baseline for spec and loads the
// dataset synchronously.
func loadedBaseline(cfg Config, spec workload.DatasetSpec, nodes int) (*graphdb.Dist, *workload.Generator, *query.Plan, error) {
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := graphdb.NewDist(graphdb.DistOptions{
		Nodes: nodes, Seed: cfg.Seed, NetDelay: cfg.NetDelay,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		if err := d.Ingest(u); err != nil {
			d.Close()
			return nil, nil, nil, err
		}
	}
	plan, err := planFor(gen, sampling.TopK)
	if err != nil {
		d.Close()
		return nil, nil, nil, err
	}
	return d, gen, plan, nil
}

// loadedSingleNode builds the single-node baseline store.
func loadedSingleNode(spec workload.DatasetSpec) (*graphdb.Store, *workload.Generator, error) {
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return nil, nil, err
	}
	store := graphdb.NewStore(graphdb.StoreOptions{})
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		store.ApplyUpdate(u)
	}
	return store, gen, nil
}

func planFor(gen *workload.Generator, strat sampling.Strategy) (*query.Plan, error) {
	q, err := gen.BuildQuery(strat)
	if err != nil {
		return nil, err
	}
	return query.Decompose(0, q, gen.Schema())
}

// seedPicker returns a function drawing random query seeds.
func seedPicker(gen *workload.Generator, seed int64) func() graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	var mu chan struct{} = make(chan struct{}, 1)
	return func() graph.VertexID {
		mu <- struct{}{}
		v := gen.SeedVertex(rng)
		<-mu
		return v
	}
}

func ms(ns int64) float64    { return float64(ns) / 1e6 }
func msf(ns float64) float64 { return ns / 1e6 }
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type updateT = graph.Update

// bootHelios boots an unloaded in-process cluster for gen's schema and q.
// sampleThreads and serveThreads size the hot-path pools — the scale-up
// axes of Fig. 13(a)/14(a) — with 0 meaning the workers' defaults.
func bootHelios(cfg Config, gen *workload.Generator, q query.Query, samplers, servers, sampleThreads, serveThreads int) (*cluster.Local, error) {
	dc, err := deploy.New(gen.Schema(), []query.Query{q}, samplers, servers, 1)
	if err != nil {
		return nil, err
	}
	var o cluster.Options
	o.Sampler.Worker = sampler.Config{SampleThreads: sampleThreads, Seed: cfg.Seed, Metrics: cfg.Metrics}
	o.Server.Worker = serving.Config{ServeThreads: serveThreads, Metrics: cfg.Metrics}
	return cluster.Boot(dc, o)
}

// parallelIngest drives gen's stream through sink from `workers` loader
// goroutines and returns (records, seconds). The generator itself is
// single-threaded; a channel fans updates out.
func parallelIngest(gen *workload.Generator, workers int, sink func(graph.Update) error) (int, float64, error) {
	ch := make(chan graph.Update, 4096)
	errCh := make(chan error, workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range ch {
				if err := sink(u); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	n := 0
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		ch <- u
		n++
	}
	close(ch)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	select {
	case err := <-errCh:
		return n, elapsed, err
	default:
	}
	return n, elapsed, nil
}
