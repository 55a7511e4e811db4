package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/serving"
	"helios/internal/wire"
)

// span is one timed call into a layer. Spans of one request share ID; Parent
// names the span that the call was made on behalf of.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(id int, name, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
}

// traceParams is one traced run's input.
type traceParams struct {
	def    workloadDef
	seed   int64
	shrink float64
	// ops is how many operations each traced path times.
	ops int
	// tmpDir is where the kvstore spill probe may create (and remove) a
	// directory.
	tmpDir string
}

// traceOps is how many operations each traced path times at the default
// -seconds; a shorter -seconds times proportionally fewer, so `trace` and
// `run -trace 1` are one path whose length follows the one flag.
const traceOps = 20000

func traceOpsFor(seconds float64) int {
	return max(1, min(traceOps, int(traceOps*seconds/defaultSeconds)))
}

// The query path's layers, outermost first. For every request id the
// harness calls each in turn with the same input, so a layer's self time is
// its span minus the next-deeper one.
var queryLayers = []string{"frontend.gateway", "frontend.sample", "rpc.sample", "serving.sample"}

// traceResult is what a traced run produced.
type traceResult struct {
	metrics   map[string]metric
	spans     []span
	attempted int64
	failed    int64
	firstErr  error
	// gatewayP50ms is the median gateway probe, for trace.e2e_gap_pct.
	gatewayP50ms float64
}

// runTrace boots the deployment inside this process with the code the SUT
// child uses, preloads it, and times public calls into each layer from one
// goroutine.
func runTrace(p traceParams) (*traceResult, error) {
	// The bulk factor sizes throughput runs; the probes time single calls,
	// which do not depend on it, so every workload traces on the base load.
	d, err := buildDataset(p.def.hops, interScale*p.shrink, p.ops+16, p.seed)
	if err != nil {
		return nil, err
	}
	ref := d.newOracle()
	t, err := bootTopology(d.cfg)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	for _, u := range d.preload {
		if err := t.fe.Ingest(u); err != nil {
			return nil, fmt.Errorf("traced preload: %w", err)
		}
	}
	if err := t.quiesce(2 * time.Minute); err != nil {
		return nil, err
	}

	res := &traceResult{metrics: make(map[string]metric)}
	log := &spanLog{t0: time.Now()}
	if err := traceQueries(p, d, ref, t, log, res); err != nil {
		return nil, err
	}
	if err := traceUpdates(p, d, t, log, res); err != nil {
		return nil, err
	}
	if err := t.quiesce(2 * time.Minute); err != nil {
		return nil, err
	}
	if err := leafProbes(p, d, res.metrics); err != nil {
		return nil, err
	}
	res.spans = log.spans
	return res, nil
}

// quiesce is child.quiesce for an in-process deployment.
func (t *topology) quiesce(timeout time.Duration) error {
	return waitFor(timeout, 2*time.Millisecond, func() (bool, error) {
		backlog, depth := t.pipeline()
		return backlog == 0 && depth == 0, nil
	})
}

// traceQueries times the query path layer by layer.
func traceQueries(p traceParams, d *dataset, ref *refGraph, t *topology, log *spanLog, res *traceResult) error {
	cn := newConn(t.gatewayAddr)
	defer cn.close()
	part := graph.NewPartitioner(len(t.servers))
	clients := make([]*serving.Client, len(t.servingAddrs))
	for i, addr := range t.servingAddrs {
		c, err := serving.DialServing(addr, 0)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}
	rng := rand.New(rand.NewSource(p.seed))
	durs := make([][]float64, len(queryLayers)) // µs, by layer then id
	var encode, decode, lookups, bodyBytes float64
	w := codec.NewWriter(64 << 10)
	for n := 0; n < p.ops; n++ {
		seed := d.seeds[rng.Intn(len(d.seeds))]
		owner := part.Of(seed)
		var starts, ends [4]time.Time

		starts[0] = time.Now()
		resp, lat, err := cn.sample(seed)
		ends[0] = starts[0].Add(lat)
		res.attempted++
		if err == nil && n%16 == 0 {
			err = ref.checkExact(seed, resp)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("traced query: %w", err)
			}
			continue
		}
		bodyBytes += float64(cn.body.Len())

		starts[1] = time.Now()
		_, err1 := t.fe.Sample(0, seed)
		ends[1] = time.Now()
		starts[2] = ends[1]
		_, err2 := clients[owner].SampleBudget(0, seed, 0, 0)
		ends[2] = time.Now()
		starts[3] = ends[2]
		out, err3 := t.servers[owner].Sample(0, seed)
		ends[3] = time.Now()
		for _, err := range []error{err1, err2, err3} {
			if err != nil {
				return fmt.Errorf("traced query path: %w", err)
			}
		}
		for l, name := range queryLayers {
			parent := ""
			if l > 0 {
				parent = queryLayers[l-1]
			}
			log.add(n, name, parent, starts[l], ends[l])
			durs[l] = append(durs[l], float64(ends[l].Sub(starts[l]))/1e3)
		}
		lookups += float64(out.Lookups)

		w.Reset()
		encStart := time.Now()
		serving.AppendResult(w, out)
		encEnd := time.Now()
		if _, err := serving.DecodeResult(codec.NewReader(w.Bytes())); err != nil {
			return fmt.Errorf("result codec: %w", err)
		}
		decEnd := time.Now()
		encode += float64(encEnd.Sub(encStart)) / 1e3
		decode += float64(decEnd.Sub(encEnd)) / 1e3
	}
	ok := len(durs[0])
	if ok == 0 {
		return fmt.Errorf("traced query path: no successful operation (%v)", res.firstErr)
	}

	// Trim by request id, not per layer, and rank the ids by the sum of their
	// spans: the ids a GC cycle or a scheduler stall hit anywhere (the slowest
	// 5 %) leave every layer's mean together, no layer is favoured by the
	// choice, and the self times below still add up to the gateway mean.
	keep := keepFastest(durs...)
	means := make([]float64, len(queryLayers)+1) // trailing 0: nothing below serving.sample
	for l := range queryLayers {
		for _, id := range keep {
			means[l] += durs[l][id]
		}
		means[l] /= float64(len(keep))
	}
	m := res.metrics
	m["frontend.gateway_self_us"] = metric{Value: means[0] - means[1], Unit: "us", Samples: len(keep)}
	m["frontend.sample_self_us"] = metric{Value: means[1] - means[2], Unit: "us", Samples: len(keep)}
	m["rpc.sample_self_us"] = metric{Value: means[2] - means[3], Unit: "us", Samples: len(keep)}
	m["serving.sample_us"] = metric{Value: means[3], Unit: "us", Samples: len(keep)}
	m["serving.sample_p99_us"] = metric{Value: percentile(sortedCopy(durs[3]), 99), Unit: "us", Samples: ok}
	m["serving.lookups_per_query"] = metric{Value: lookups / float64(ok), Unit: "count", Samples: ok}
	m["serving.result_encode_us"] = metric{Value: encode / float64(ok), Unit: "us", Samples: ok}
	m["serving.result_decode_us"] = metric{Value: decode / float64(ok), Unit: "us", Samples: ok}
	m["frontend.gateway_resp_bytes"] = metric{Value: bodyBytes / float64(ok), Unit: "B", Samples: ok}
	res.gatewayP50ms = percentile(sortedCopy(durs[0]), 50) / 1e3

	// Allocation cost of one assembly, from the runtime's own counters.
	const allocOps = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocOps; i++ {
		seed := d.seeds[rng.Intn(len(d.seeds))]
		if _, err := t.servers[part.Of(seed)].Sample(0, seed); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["serving.sample_allocs_per_op"] = metric{Value: float64(after.Mallocs-before.Mallocs) / allocOps, Unit: "count", Samples: allocOps}
	m["serving.sample_bytes_per_op"] = metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / allocOps, Unit: "B", Samples: allocOps}
	return nil
}

// keepShare is the share of request ids the traced means are taken over.
const keepShare = 0.95

// keepFastest returns the ids (indices into each of spans) whose spans add
// up to the least, keepShare of them.
func keepFastest(spans ...[]float64) []int {
	total := make([]float64, len(spans[0]))
	for _, s := range spans {
		for id, d := range s {
			total[id] += d
		}
	}
	idx := make([]int, len(total))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return total[idx[a]] < total[idx[b]] })
	n := int(float64(len(idx)) * keepShare)
	if n < 1 {
		n = 1
	}
	return idx[:n]
}

// traceUpdates times the ingest call and the remote append inside it.
func traceUpdates(p traceParams, d *dataset, t *topology, log *spanLog, res *traceResult) error {
	bus, err := mq.DialBroker(t.brokerAddr, 0)
	if err != nil {
		return err
	}
	defer bus.Close()
	// The bare append repeats the frontend's own append — same topic, same
	// partition, same payload — so both calls set off the same pipeline work
	// and compete with it for the same cores; alternating which goes first
	// cancels what is left of the order. The duplicate is harmless: TopK
	// keeps the incumbent on a timestamp tie.
	updates, err := bus.OpenTopic(wire.TopicUpdates, len(t.samplers))
	if err != nil {
		return err
	}
	part := graph.NewPartitioner(len(t.samplers))
	var ingest, remote []float64 // µs
	ts := graph.Timestamp(len(d.preload) + len(d.tail) + 1)
	for n := 0; n < p.ops && n < len(d.tail); n++ {
		u := d.tail[n]
		if !d.inQuery(u.Edge.Type) {
			continue // the frontend drops it without an append
		}
		ts++
		u.Edge.Ts = ts
		payload := codec.EncodeUpdate(u)
		var s, e [2]time.Time // 0 = frontend.ingest, 1 = mq.append_remote
		var errs [2]error
		for _, call := range [][2]int{{0, 1}, {1, 0}}[n%2] {
			s[call] = time.Now()
			if call == 0 {
				errs[0] = t.fe.Ingest(u)
			} else {
				_, errs[1] = updates.Append(part.Of(u.Edge.Src), uint64(u.Edge.Src), payload)
			}
			e[call] = time.Now()
		}
		res.attempted++
		if errs[1] != nil {
			return fmt.Errorf("traced append: %w", errs[1])
		}
		if errs[0] != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("traced ingest: %w", errs[0])
			}
			continue
		}
		// Update ids follow the query ids, so no two requests share one.
		log.add(p.ops+n, "frontend.ingest", "", s[0], e[0])
		log.add(p.ops+n, "mq.append_remote", "frontend.ingest", s[1], e[1])
		ingest = append(ingest, float64(e[0].Sub(s[0]))/1e3)
		remote = append(remote, float64(e[1].Sub(s[1]))/1e3)
	}
	if len(ingest) == 0 {
		return fmt.Errorf("traced update path: no successful operation (%v)", res.firstErr)
	}
	keep := keepFastest(ingest, remote)
	var mi, mr float64
	for _, id := range keep {
		mi += ingest[id]
		mr += remote[id]
	}
	mi /= float64(len(keep))
	mr /= float64(len(keep))
	res.metrics["frontend.ingest_self_us"] = metric{Value: mi - mr, Unit: "us", Samples: len(keep)}
	res.metrics["mq.append_remote_us"] = metric{Value: mr, Unit: "us", Samples: len(keep)}

	// The batch probe appends to a topic nobody consumes.
	scratch, err := bus.OpenTopic("bench.scratch", 1)
	if err != nil {
		return err
	}
	const batch = 64
	recs := make([]mq.BatchRecord, batch)
	payload := codec.EncodeUpdate(d.tail[0])
	res.metrics["mq.append_batch_remote_ns_per_rec"] = metric{Unit: "ns", Samples: 200 * batch, Value: perOp(200, func(int) {
		for i := range recs {
			recs[i] = mq.BatchRecord{Key: uint64(i), Value: payload}
		}
		if _, aerr := scratch.AppendBatch(0, recs); aerr != nil {
			err = aerr
		}
	}) / batch}
	return err
}

// perOp times n calls of fn after a short warm-up and returns the mean
// nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	for i := 0; i < n/10+1; i++ {
		fn(i)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}
