package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"helios/internal/graph"
)

// runParams is one invocation's input.
type runParams struct {
	def     workloadDef
	seed    int64
	seconds float64
	// trials is how many independent trials the run is made of. Each trial
	// generates its own graph from the seed, sets a cluster up from scratch
	// and measures for seconds/trials; every reported metric is the median
	// over the trials. Three trials are what makes set-up time repeat at all,
	// vote out a burst of host noise, and shrink what the luck of one small
	// graph's shape adds to the spread between seeds.
	trials int
	// shrink scales the workload's streams (1 = the sizes in workloads.go).
	shrink float64
	// pprofDir, when set, makes every trial's child write its profiles there
	// (a later trial overwrites an earlier one's).
	pprofDir string
	logf     func(format string, args ...any)
}

// verifySeeds is how many seeds the verification passes compare exactly.
const verifySeeds = 200

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes, over all
	// trials (0 when each trial contributes a single reading).
	Samples int `json:"samples,omitempty"`
}

// runResult is what one run of one workload measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	// PerLayer holds the numbers an untraced run can see from outside
	// (differences of /bench/stats across the measured phase) and, after a
	// traced run, the layer probes.
	PerLayer map[string]metric `json:"per_layer"`
}

// trial collects one trial's readings by metric name.
type trial struct {
	values  map[string]float64
	samples map[string]int
	// p99s are the query-latency p99s of this trial's time windows.
	p99s []float64

	attempted, failed int64
	firstErr          error
}

func (t *trial) set(name string, value float64, samples int) {
	t.values[name] = value
	t.samples[name] = samples
}

func (t *trial) note(attempted, failed int64, err error) {
	t.attempted += attempted
	t.failed += failed
	if err != nil && t.firstErr == nil {
		t.firstErr = err
	}
}

// runWorkload performs one complete run of a workload.
func runWorkload(p runParams) (*runResult, error) {
	res := &runResult{
		Workload: p.def.name, Seed: p.seed, Seconds: p.seconds,
		EndToEnd: make(map[string]metric), PerLayer: make(map[string]metric),
	}
	phase := time.Duration(p.seconds / float64(p.trials) * float64(time.Second))
	var trials []*trial
	for i := 0; i < p.trials; i++ {
		t, err := runTrial(p, p.seed*int64(p.trials)+int64(i), phase)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i+1, err)
		}
		p.logf("%s: trial %d/%d: set-up %.2fs, %.1f kups, %.0f qps, p50 %.3fms, visibility p50 %.2fms", p.def.name, i+1, p.trials,
			t.values["setup_s"], t.values["ingest_kups"], t.values["query_qps"], t.values["query_p50_ms"], t.values["visibility_p50_ms"])
		trials = append(trials, t)
		res.Attempted += t.attempted
		res.Failed += t.failed
		if t.firstErr != nil && res.FirstErr == "" {
			res.FirstErr = t.firstErr.Error()
		}
	}
	fold := func(defs []metricDef, into map[string]metric) {
		for _, d := range defs {
			var vs []float64
			n := 0
			for _, t := range trials {
				if v, ok := t.values[d.name]; ok {
					vs = append(vs, v)
					n += t.samples[d.name]
				}
			}
			if len(vs) > 0 {
				into[d.name] = metric{Value: median(vs), Unit: d.unit, Samples: n}
			}
		}
	}
	fold(endToEnd, res.EndToEnd)
	fold(perLayer, res.PerLayer)
	// The tail is the median over every window of the run, not over trials.
	var p99s []float64
	for _, t := range trials {
		p99s = append(p99s, t.p99s...)
	}
	res.PerLayer["query_p99_ms"] = metric{Value: median(p99s), Unit: "ms", Samples: res.PerLayer["query_p99_ms"].Samples}
	return res, nil
}

// runTrial generates a graph from seed, sets a cluster up with it, measures
// for phase, and drains and verifies.
func runTrial(p runParams, seed int64, phase time.Duration) (*trial, error) {
	scale := interScale * p.def.loadFactor * p.shrink
	tailN := int(p.def.rate*phase.Seconds()) + 16
	d, err := buildDataset(p.def.hops, scale, tailN, seed)
	if err != nil {
		return nil, err
	}
	ref := d.newOracle()
	t := &trial{values: make(map[string]float64), samples: make(map[string]int)}
	c, err := setup(p, d, ref, t, seed)
	if err != nil {
		return nil, err
	}
	if err := measure(p, d, ref, c, t, seed, phase); err != nil {
		c.stop()
		return nil, err
	}
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("sut child: %w", err)
	}
	return t, nil
}

// setup starts a child, bulk-loads the preload through the stream path with
// two producers, waits for the pipeline to quiesce and verifies the result
// against the oracle. The child is returned running.
func setup(p runParams, d *dataset, ref *refGraph, t *trial, seed int64) (*child, error) {
	c, err := startChild(d.cfgJSON, p.pprofDir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			c.stop()
		}
	}()

	var prods [2]*producer
	for i := range prods {
		if prods[i], err = newProducer(d, c.addr); err != nil {
			return nil, err
		}
		defer prods[i].close()
	}
	before, err := c.stats(false)
	if err != nil {
		return nil, err
	}
	first := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(prods))
	for i := range prods {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, u := range d.halves[i] {
				if err := prods[i].fe.Ingest(u); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
	}
	idleAt, err := c.quiesce(2 * time.Minute)
	if err != nil {
		return nil, err
	}
	after, err := c.stats(false)
	if err != nil {
		return nil, err
	}
	n := len(d.preload)
	t.set("ingest_kups", float64(n)/idleAt.Sub(first).Seconds()/1000, n)
	t.set("cpu_us_per_update", float64(after.CPUMicros-before.CPUMicros)/float64(n), n)
	t.note(verify(c, d, ref, rand.New(rand.NewSource(seed))))
	t.set("setup_s", time.Since(c.started).Seconds(), 1)
	ok = true
	return c, nil
}

// verify compares verifySeeds uniformly drawn seeds' results with the
// oracle's exact answers. It is only called on a quiescent pipeline.
func verify(c *child, d *dataset, ref *refGraph, rng *rand.Rand) (attempted, failed int64, firstErr error) {
	cn := newConn(c.addr.Gateway)
	defer cn.close()
	for i := 0; i < verifySeeds; i++ {
		seed := d.seeds[rng.Intn(len(d.seeds))]
		attempted++
		resp, _, err := cn.sample(seed)
		if err == nil {
			err = ref.checkExact(seed, resp)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("verification: %w", err)
			}
		}
	}
	return attempted, failed, firstErr
}

// p99Windows is how many equal time windows a trial's measured phase is cut
// into for query_p99_ms: with three trials a run has nine (the issue's ten
// does not divide by three), each of a third of a phase, which at the slowest
// workload's ~750 queries/s is ~1 000 samples, ten beyond the percentile.
const p99Windows = 3

// warmupQueries is how many unmeasured queries each connection issues before
// the clock starts: users pay connection set-up and first-touch costs once,
// not per request.
const warmupQueries = 20

// measure runs the measured phase against a set-up cluster and records the
// query, visibility, heap and count metrics.
func measure(p runParams, d *dataset, ref *refGraph, c *child, t *trial, seed int64, length time.Duration) error {
	ph := &phase{
		def: p.def, data: d, ref: ref,
		nextTs:  graph.Timestamp(len(ref.edges)), // past every timestamp the preload used
		touched: make(map[graph.VertexID]time.Time),
	}
	a := &client{p: ph, rng: rand.New(rand.NewSource(seed*2 + 1)), conn: newConn(c.addr.Gateway), queries: true, aim: true}
	b := &client{
		p: ph, rng: rand.New(rand.NewSource(seed*2 + 2)), conn: newConn(c.addr.Gateway),
		queries: p.def.bQueries, tail: d.tail,
		updates: &schedule{interval: time.Duration(float64(time.Second) / p.def.rate)},
	}
	defer a.conn.close()
	defer b.conn.close()
	if p.def.path == viaStream {
		prod, err := newProducer(d, c.addr)
		if err != nil {
			return err
		}
		defer prod.close()
		b.prod = prod
	}
	for _, cl := range []*client{a, b} {
		for i := 0; i < warmupQueries; i++ {
			if _, _, err := cl.conn.sample(d.seeds[i%len(d.seeds)]); err != nil {
				return fmt.Errorf("warm-up query: %w", err)
			}
		}
	}

	before, err := c.stats(false)
	if err != nil {
		return err
	}
	genCPU := processCPUMicros()
	ph.start = time.Now()
	ph.end = ph.start.Add(length)
	ph.lost = markerLostAfter(length)
	b.updates.start = ph.start
	var wg sync.WaitGroup
	for _, cl := range []*client{a, b} {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.run()
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(ph.start)
	genCPU = processCPUMicros() - genCPU
	after, err := c.stats(false)
	if err != nil {
		return err
	}

	// Latency figures. A failed operation is in none of them.
	lats := append(append([]float64(nil), a.lat...), b.lat...)
	var fewest int
	t.p99s, fewest = windowP99s(append(append([]time.Duration(nil), a.at...), b.at...), lats, length, p99Windows)
	p.logf("%s: p99 by window %.3g ms, at least %d queries in each", p.def.name, t.p99s, fewest)
	sort.Float64s(lats)
	queries := len(lats)
	t.set("query_qps", float64(queries)/elapsed.Seconds(), queries)
	t.set("query_p50_ms", percentile(lats, 50), queries)
	t.set("query_p99_ms", median(t.p99s), queries)
	t.set("cpu_us_per_query", ratio(after.CPUMicros-before.CPUMicros, int64(queries)), queries)
	vis := sortedCopy(ph.visibility)
	t.set("visibility_p50_ms", percentile(vis, 50), len(vis))
	t.set("visibility_p99_ms", percentile(vis, 99), len(vis))

	// A generator or pipeline more than a second of input behind when the
	// phase ends makes visibility a queueing measurement: that fails the run.
	// Then drain, and prove with the exact oracle that nothing was lost.
	tooFew := ph.closeMarkers()
	t.note(a.attempted+b.attempted, a.failed+b.failed+ph.markerFail, ph.firstErr)
	if tooFew != nil {
		t.note(0, 1, tooFew)
	}
	if backlog := b.updates.backlog(ph.end); float64(backlog) > p.def.rate {
		t.note(0, 1, fmt.Errorf("generator ended %d updates (%.1fs of input) behind schedule", backlog, float64(backlog)/p.def.rate))
	}
	if float64(after.Backlog) > p.def.rate*4 {
		// One update fans out into a few queue records; four seconds' worth
		// of records is well past one second of input.
		t.note(0, 1, fmt.Errorf("pipeline backlog at end of phase is %d records", after.Backlog))
	}
	if _, err := c.quiesce(time.Minute); err != nil {
		return err
	}
	t.note(verify(c, d, ref, rand.New(rand.NewSource(seed+1))))
	final, err := c.stats(true)
	if err != nil {
		return err
	}
	t.set("heap_live_mb", float64(final.HeapAlloc)/(1<<20), 1)

	// Counts across the measured phase.
	ops := int64(queries + b.updates.sent)
	dUpd := after.UpdatesProcessed - before.UpdatesProcessed
	dSampleMiss, dFeatMiss := after.SampleMisses-before.SampleMisses, after.FeatureMisses-before.FeatureMisses
	t.set("serving.served", float64(after.Served-before.Served), 0)
	t.set("serving.applied", float64(after.Applied-before.Applied), 0)
	t.set("serving.sample_miss_ratio", ratio(dSampleMiss, after.SampleHits-before.SampleHits+dSampleMiss), 0)
	t.set("serving.feature_miss_ratio", ratio(dFeatMiss, after.FeatureHits-before.FeatureHits+dFeatMiss), 0)
	t.set("serving.cache_bytes", float64(final.CacheBytes), 0)
	t.set("serving.cache_bytes_per_entry", ratio(final.CacheBytes, final.CacheEntries), 0)
	t.set("sampler.updates_processed", float64(dUpd), 0)
	t.set("sampler.admission_ratio", ratio(after.Admissions-before.Admissions, after.EdgesOffered-before.EdgesOffered), 0)
	t.set("sampler.msgs_per_update", ratio(after.SamplerMsgs-before.SamplerMsgs, dUpd), 0)
	t.set("mq.backlog_end", float64(after.Backlog), 0)
	t.set("mq.backlog_max", float64(after.BacklogMax), 0)
	t.set("sut.alloc_kb_per_op", ratio(int64(after.TotalAlloc-before.TotalAlloc), ops)/1024, int(ops))
	t.set("sut.gc_cycles", float64(after.NumGC-before.NumGC), 0)
	t.set("sut.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, 0)
	t.set("gen.late_p99_ms", percentile(sortedCopy(b.late), 99), len(b.late))
	t.set("gen.cpu_share", float64(genCPU)/(elapsed.Seconds()*1e6*float64(runtime.NumCPU())), 0)
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
