// Package frontend implements the Helios front-end node (§4.3): it routes
// inference requests to the serving worker owning the seed vertex and
// graph updates to the sampling partitions that need them, and exposes both
// over HTTP for applications.
package frontend

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/actor"
	"helios/internal/clock"
	"helios/internal/deploy"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/overload"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/serving"
	"helios/internal/wire"
)

// replica is one serving endpoint covering a partition. healthy is
// cleared when a call fails at the transport level and restored by the
// background prober once the endpoint answers pings again.
type replica struct {
	addr    string
	client  *serving.Client
	healthy atomic.Bool
}

// probeInterval paces health probes of unhealthy replicas.
const probeInterval = time.Second

// Frontend routes requests and updates for one deployment.
type Frontend struct {
	// Router is the update path: Ingest stamps and routes, Updates counts.
	*Router

	cfg       *deploy.Config
	servPart  graph.Partitioner // serving workers
	combiners []*combiner       // [partition] replicas and sample path (coalesce.go)
	updates   mq.TopicHandle

	prober    *actor.Loop
	closeOnce sync.Once

	// Overload state (see SetOverload). limiter is nil until admission
	// control is enabled.
	limiter    *overload.Limiter
	reqTimeout time.Duration

	clk    clock.Clock
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *obs.Logger
	slowNS atomic.Int64 // slow-sample log threshold (0 = disabled)

	// Per-stage latency histograms (trace exemplars ride on traced
	// requests) and the frontend's rolling latency SLO.
	stRequest   *obs.Histogram
	stAdmission *obs.Histogram
	stRPC       *obs.Histogram
	stIngest    *obs.Histogram
	slo         *obs.SLO

	// Failovers counts replica calls abandoned for the next replica after
	// a transport failure; DeadlineExceeded counts requests whose
	// end-to-end budget ran out. Both are published on the registry as
	// frontend.failovers / frontend.deadline_exceeded.
	Failovers        obs.Counter
	DeadlineExceeded obs.Counter
	// shedBroker counts updates the broker refused for ingestion
	// backpressure, in the registry's overload.shed total.
	shedBroker *obs.Counter
}

// New connects a frontend to the broker and the serving workers' RPC
// endpoints. With R = max(cfg.File.Replicas, 1), servingAddrs must hold
// Servers×R entries in partition-major order: the R interchangeable
// replicas of partition p are servingAddrs[p*R : (p+1)*R].
func New(cfg *deploy.Config, bus mq.Bus, servingAddrs []string) (*Frontend, error) {
	nrep := cfg.File.Replicas
	if nrep < 1 {
		nrep = 1
	}
	if len(servingAddrs) != cfg.File.Servers*nrep {
		return nil, fmt.Errorf("frontend: %d serving addrs for %d servers × %d replicas",
			len(servingAddrs), cfg.File.Servers, nrep)
	}
	updates, err := bus.OpenTopic(wire.TopicUpdates, cfg.File.Samplers)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		cfg:      cfg,
		servPart: graph.NewPartitioner(cfg.File.Servers),
		updates:  updates,
		clk:      clock.Wall(),
		reg:      obs.NewRegistry(),
		tracer:   obs.NewTracer(0, 0),
	}
	f.Router = NewRouter(cfg, f.clk, f.append)
	f.registerMetrics()
	for p := 0; p < cfg.File.Servers; p++ {
		reps := make([]*replica, nrep)
		for r := 0; r < nrep; r++ {
			addr := servingAddrs[p*nrep+r]
			c, err := serving.DialServing(addr, 0)
			if err != nil {
				f.Close()
				return nil, err
			}
			reps[r] = &replica{addr: addr, client: c}
			reps[r].healthy.Store(true)
		}
		f.combiners = append(f.combiners, &combiner{f: f, reps: reps})
	}
	f.prober = actor.Every(probeInterval, f.probeOnce)
	return f, nil
}

// SetOverload applies the frontend's share of a deployment's overload
// policy; call once, after UseObs and before serving traffic. Every Sample
// gets RequestTimeoutMS as its end-to-end budget, the remainder riding in
// the RPC frame so serving abandons work the caller gave up on. With
// MaxInflight > 0 a deadline-aware limiter admits that many Samples, queues
// as many beyond it, and sheds the rest with a typed overload error. Zero
// values leave each bound disabled.
func (f *Frontend) SetOverload(o deploy.OverloadFile) {
	f.reqTimeout = time.Duration(o.RequestTimeoutMS) * time.Millisecond
	if o.MaxInflight > 0 {
		f.limiter = overload.NewLimiter(overload.Config{
			Stage:       "frontend",
			MaxInflight: o.MaxInflight,
			Clock:       f.clk,
			Metrics:     f.reg,
		})
	}
}

// probeOnce pings every unhealthy replica and re-admits the ones that
// answer.
func (f *Frontend) probeOnce() {
	for _, c := range f.combiners {
		for _, rep := range c.reps {
			if rep.healthy.Load() {
				continue
			}
			if rep.client.Ping(time.Second) == nil {
				rep.healthy.Store(true)
			}
		}
	}
}

// unhealthyReplicas counts replicas currently marked down (scrape-time).
func (f *Frontend) unhealthyReplicas() int64 {
	var n int64
	for _, c := range f.combiners {
		for _, rep := range c.reps {
			if !rep.healthy.Load() {
				n++
			}
		}
	}
	return n
}

// callReplica runs fn against the partition's replicas until one
// succeeds. Replica order rotates per call; unhealthy replicas are
// skipped on the first pass but — so a fully-down partition still gets a
// liveness check instead of an instant refusal — tried on the second.
// A transport failure marks the replica unhealthy and moves on; a remote
// handler error is the caller's problem and returns immediately. Two
// outcomes are final without touching replica health: the deadline budget
// running out (the caller gave up — retrying another replica only produces
// a later answer nobody reads) and an overload shed (the replica is
// healthy, just full; failing over would stampede the next replica).
// deadline (zero = none) caps the whole call: fn receives the remaining
// budget before each attempt.
func (c *combiner) callReplica(deadline time.Time, fn func(*serving.Client, time.Duration) error) error {
	f, reps := c.f, c.reps
	start := int(c.rr.Add(1))
	tried := make([]bool, len(reps))
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(reps); i++ {
			idx := (start + i) % len(reps)
			rep := reps[idx]
			if tried[idx] || (pass == 0 && !rep.healthy.Load()) {
				continue
			}
			var budget time.Duration
			if !deadline.IsZero() {
				if budget = deadline.Sub(f.clk.Now()); budget <= 0 {
					f.DeadlineExceeded.Inc()
					return rpc.ErrDeadlineExceeded
				}
			}
			tried[idx] = true
			err := fn(rep.client, budget)
			if err == nil {
				rep.healthy.Store(true)
				return nil
			}
			if overload.IsDeadline(err) {
				f.DeadlineExceeded.Inc()
				return err
			}
			var re *rpc.RemoteError
			if errors.As(err, &re) {
				return err
			}
			lastErr = err
			if rep.healthy.CompareAndSwap(true, false) {
				f.Failovers.Inc()
			}
		}
	}
	return lastErr
}

// UseObs replaces the frontend's observability wiring: binaries pass the
// process clock, obs.Default() and obs.DefaultTracer() so frontend traffic
// shows up on the ops listener; tests pass a fake clock. Nil arguments
// keep the current value. Call before serving traffic.
func (f *Frontend) UseObs(clk clock.Clock, reg *obs.Registry, tracer *obs.Tracer) {
	if clk != nil {
		f.clk = clk
		f.Router.clk = clk
	}
	if tracer != nil {
		f.tracer = tracer
	}
	if reg != nil {
		f.reg = reg
		f.registerMetrics()
	}
}

// Default rolling latency objective the frontend registers: 99% of
// samples complete within 250ms over a one-minute window. Deployments
// with different targets call SetSLO.
const (
	defaultSLOTarget    = 250 * time.Millisecond
	defaultSLOObjective = 0.99
	defaultSLOWindow    = time.Minute
)

// sampleSLOName is the registered name of the frontend's latency SLO.
const sampleSLOName = "frontend.sample_latency"

func (f *Frontend) registerMetrics() {
	f.reg.AddCounter(&f.Failovers, "frontend.failovers")
	f.reg.AddCounter(&f.DeadlineExceeded, "frontend.deadline_exceeded")
	f.shedBroker = f.reg.Counter("overload.shed", "stage", "ingest", "reason", "broker_lag")
	f.reg.GaugeFunc("frontend.unhealthy_replicas", f.unhealthyReplicas)
	f.stRequest = f.reg.Stage(obs.StageFrontendRequest).WithClock(f.clk)
	f.stAdmission = f.reg.Stage(obs.StageFrontendAdmission).WithClock(f.clk)
	f.stRPC = f.reg.Stage(obs.StageFrontendRPC).WithClock(f.clk)
	f.stIngest = f.reg.Stage(obs.StageFrontendIngest).WithClock(f.clk)
	f.slo = f.reg.SLO(sampleSLOName, defaultSLOTarget, defaultSLOObjective, defaultSLOWindow).WithClock(f.clk)
	f.stRequest.AttachSLO(f.slo)
	overload.RegisterMetrics(f.reg)
	rpc.RegisterMetrics(f.reg)
}

// SetSLO replaces the target and window of the frontend's 99% latency
// objective. Call before serving traffic (the old window is discarded).
func (f *Frontend) SetSLO(target, window time.Duration) {
	f.slo = obs.NewSLO(sampleSLOName, target, defaultSLOObjective, window).WithClock(f.clk)
	f.reg.ReplaceSLO(f.slo)
	f.stRequest.AttachSLO(f.slo)
}

// SetLogger wires the frontend's structured logger: request errors and
// sheds are logged at warn, and samples slower than slow (default: the
// SLO target) at info — each line stamped with the request's trace ID so
// it joins /metrics exemplars and /traces. A nil logger disables logging.
func (f *Frontend) SetLogger(l *obs.Logger, slow time.Duration) {
	f.log = l
	if slow <= 0 {
		slow = f.slo.Target
	}
	f.slowNS.Store(slow.Nanoseconds())
}

// Tracer returns the frontend's tracer (for tests and ops wiring).
func (f *Frontend) Tracer() *obs.Tracer { return f.tracer }

// Metrics returns the frontend's registry.
func (f *Frontend) Metrics() *obs.Registry { return f.reg }

// Close stops the health prober and releases the serving connections.
func (f *Frontend) Close() {
	f.closeOnce.Do(func() {
		f.prober.Stop()
		for _, c := range f.combiners {
			for _, rep := range c.reps {
				rep.client.Close()
			}
		}
	})
}

// IngestTraced is Ingest with a trace ID minted for the update (reusing
// u.Trace if the caller pre-assigned one). The ID travels with the update
// through sampling into the serving caches, where the refresh it causes
// is recorded against it.
func (f *Frontend) IngestTraced(u graph.Update) (uint64, error) {
	if u.Trace == 0 {
		u.Trace = f.tracer.NewID()
	}
	return u.Trace, f.Ingest(u)
}

// append publishes one routed update, translating the broker's
// backpressure refusal into a typed overload error. The publish latency is
// observed into the frontend.ingest_append stage against the update's
// trace.
func (f *Frontend) append(p int, key uint64, payload []byte, trace uint64) error {
	start := f.clk.Now()
	_, err := f.updates.Append(p, key, payload)
	f.stIngest.Observe(f.clk.Now().Sub(start).Nanoseconds(), trace)
	if err != nil {
		if mq.IsBackpressure(err) {
			f.shedBroker.Inc()
			f.log.Warn(trace, obs.StageFrontendIngest, "ingest shed", "partition", p, "err", err)
			return overload.Shed("ingest", "broker_lag")
		}
		f.log.Error(trace, obs.StageFrontendIngest, "ingest append failed", "partition", p, "err", err)
		return err
	}
	return nil
}

// admitSample runs the request through the frontend limiter (when enabled)
// and returns the request's absolute deadline (zero when no RequestTimeout
// is set) plus the release function (never nil). The time spent queueing
// for admission is observed into the frontend.admission stage against the
// request's trace.
func (f *Frontend) admitSample(trace uint64) (time.Time, func(), error) {
	start := f.clk.Now()
	var deadline time.Time
	if f.reqTimeout > 0 {
		deadline = start.Add(f.reqTimeout)
	}
	if f.limiter == nil {
		f.stAdmission.Observe(f.clk.Now().Sub(start).Nanoseconds(), trace)
		return deadline, func() {}, nil
	}
	_, release, err := f.limiter.Acquire(deadline)
	f.stAdmission.Observe(f.clk.Now().Sub(start).Nanoseconds(), trace)
	if err != nil {
		if overload.IsDeadline(err) {
			f.DeadlineExceeded.Inc()
		}
		f.log.Warn(trace, obs.StageFrontendAdmission, "sample shed at admission", "err", err)
		return deadline, nil, err
	}
	return deadline, release, nil
}

// Sample routes a sampling query to a healthy replica of the serving
// partition owning the seed (untraced). Untraced requests run the exact
// same path as traced ones — stage histograms, the latency SLO, failover
// accounting, failure warnings, and the slow-sample log all see them —
// only the trace recording itself is skipped.
func (f *Frontend) Sample(qid query.ID, seed graph.VertexID) (*serving.Result, error) {
	enc, err := f.sampleCommon(qid, seed, 0)
	if err != nil {
		return nil, err
	}
	return enc.Decode()
}

// SampleEncoded is Sample with the answer left in the serving worker's wire
// form, which the caller owns.
func (f *Frontend) SampleEncoded(qid query.ID, seed graph.VertexID) (serving.Encoded, error) {
	return f.sampleCommon(qid, seed, 0)
}

// SampleTraced routes a sampling query with a freshly minted trace ID and
// records the completed trace: the serving worker's stage spans (queue
// wait, K-hop assembly, feature fetch) plus the residual RPC transport
// time, so spans always sum to at most the end-to-end latency.
func (f *Frontend) SampleTraced(qid query.ID, seed graph.VertexID) (*serving.Result, uint64, error) {
	trace := f.tracer.NewID()
	enc, err := f.sampleCommon(qid, seed, trace)
	if err != nil {
		return nil, trace, err
	}
	res, err := enc.Decode()
	return res, trace, err
}

// sampleCommon is the one serve path behind Sample, SampleTraced and the
// gateway (trace == 0 means untraced): admission, the call through the
// seed's partition combiner, stage observation, the failure warning, and
// the slow-sample log are identical for all; only tracer.Record is gated
// on a non-zero trace ID. The answer stays in the worker's encoding: the
// stage accounting reads its header, and whoever needs more decodes it
// (the library calls) or transcodes it (the gateway) exactly once.
func (f *Frontend) sampleCommon(qid query.ID, seed graph.VertexID, trace uint64) (serving.Encoded, error) {
	deadline, release, err := f.admitSample(trace)
	if err != nil {
		return nil, err
	}
	defer release()
	start := f.clk.Now()
	enc, err := f.combiners[f.servPart.Of(seed)].sample(qid, seed, trace, deadline)
	var h serving.Header
	if err == nil {
		h, err = enc.Header()
	}
	total := f.clk.Now().Sub(start).Nanoseconds()
	f.stRequest.Observe(total, trace)
	if err != nil {
		f.log.Warn(trace, obs.StageFrontendRequest, "sample failed",
			"seed", uint64(seed), "total", time.Duration(total), "err", err)
		return nil, err
	}
	transport := total - h.StageNS
	if transport > 0 {
		f.stRPC.Observe(transport, trace)
	}
	threshold := f.slowNS.Load()
	slow := threshold > 0 && total >= threshold && f.log.Enabled(obs.LevelInfo)
	if trace == 0 && !slow {
		return enc, nil
	}
	spans := h.Spans(1)
	if transport > 0 {
		spans = append(spans, obs.Span{Name: obs.StageFrontendRPC, Dur: transport})
	}
	if trace != 0 {
		f.tracer.Record(obs.Trace{
			ID: trace, Op: "sample", Start: start.UnixNano(), Total: total, Spans: spans,
		})
	}
	if slow {
		worst := obs.Span{}
		for _, s := range spans {
			if s.Dur > worst.Dur {
				worst = s
			}
		}
		f.log.Info(trace, obs.StageFrontendRequest, "slow sample",
			"seed", uint64(seed), "total", time.Duration(total),
			"worst_stage", worst.Name, "worst_stage_dur", time.Duration(worst.Dur))
	}
	return enc, nil
}

// HTTP gateway.

type edgeJSON struct {
	Src    uint64  `json:"src"`
	Dst    uint64  `json:"dst"`
	Type   string  `json:"type"`
	Ts     int64   `json:"ts"`
	Weight float32 `json:"weight"`
}

type vertexJSON struct {
	ID      uint64    `json:"id"`
	Type    string    `json:"type"`
	Feature []float32 `json:"feature"`
}

// httpStatus maps routing errors onto gateway statuses: 503 for a shed
// (the deployment is healthy, just full — retry with backoff), 504 for an
// exhausted deadline budget, 500 otherwise.
func httpStatus(err error) int {
	switch {
	case overload.IsDeadline(err):
		return http.StatusGatewayTimeout
	case overload.IsOverload(err):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// maxIngestBody bounds a POST /ingest/* body: a feature vector of ~100k
// components still fits, and a client cannot make the gateway buffer more.
const maxIngestBody = 1 << 20

// decodeIngest reads one bounded JSON body into v, answering 413 for an
// oversized body and 400 for a malformed one.
func decodeIngest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

// sampleBodies recycles the gateway's response buffers.
var sampleBodies = sync.Pool{New: func() any { return new([]byte) }}

// writeSample answers one GET /sample: the worker's encoding is transcoded
// to JSON in a pooled buffer and leaves in one sized write. Nothing has
// been sent when the transcode fails — a payload the worker should never
// have produced, or a feature component JSON cannot carry — so that is
// still a clean 500.
func (f *Frontend) writeSample(w http.ResponseWriter, enc serving.Encoded, seed, trace uint64) {
	buf := sampleBodies.Get().(*[]byte)
	defer sampleBodies.Put(buf)
	body, err := enc.AppendJSON((*buf)[:0], trace)
	if err != nil {
		f.log.Warn(trace, obs.StageFrontendRequest, "sample not encodable", "seed", seed, "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	*buf = body
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// Handler returns the HTTP mux: POST /ingest/edge, POST /ingest/vertex,
// GET /sample?q=<id>&seed=<vertex>, GET /healthz.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest/edge", func(w http.ResponseWriter, r *http.Request) {
		var e edgeJSON
		if !decodeIngest(w, r, &e) {
			return
		}
		et, ok := f.cfg.Schema.EdgeTypeID(e.Type)
		if !ok {
			http.Error(w, "unknown edge type", http.StatusBadRequest)
			return
		}
		err := f.Ingest(graph.NewEdgeUpdate(graph.Edge{
			Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst),
			Type: et, Ts: graph.Timestamp(e.Ts), Weight: e.Weight,
		}))
		if err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("POST /ingest/vertex", func(w http.ResponseWriter, r *http.Request) {
		var v vertexJSON
		if !decodeIngest(w, r, &v) {
			return
		}
		vt, ok := f.cfg.Schema.VertexTypeID(v.Type)
		if !ok {
			http.Error(w, "unknown vertex type", http.StatusBadRequest)
			return
		}
		err := f.Ingest(graph.NewVertexUpdate(graph.Vertex{
			ID: graph.VertexID(v.ID), Type: vt, Feature: v.Feature,
		}))
		if err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /sample", func(w http.ResponseWriter, r *http.Request) {
		args := r.URL.Query()
		qid, err := strconv.Atoi(args.Get("q"))
		if err != nil || qid < 0 || qid >= len(f.cfg.Plans) {
			http.Error(w, "bad query id", http.StatusBadRequest)
			return
		}
		seed, err := strconv.ParseUint(args.Get("seed"), 10, 64)
		if err != nil {
			http.Error(w, "bad seed", http.StatusBadRequest)
			return
		}
		trace := f.tracer.NewID()
		enc, err := f.sampleCommon(query.ID(qid), graph.VertexID(seed), trace)
		if err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		f.writeSample(w, enc, seed, trace)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok requests=%d updates=%d\n", f.stRequest.Count(), f.Updates.Value())
	})
	// Ops endpoints on the gateway itself, so a deployment fronted only by
	// this mux still exposes its registry and traces.
	ops := obs.Handler(f.reg, f.tracer)
	mux.Handle("GET /metrics", ops)
	mux.Handle("GET /traces", ops)
	mux.Handle("GET /slo", ops)
	return mux
}
