// Package serving implements the Helios serving worker (§4.3, §6): it owns
// one partition of the inference seed space, maintains a query-aware sample
// cache — a sample table per one-hop query plus a feature table, as typed
// in-memory cells with an optional kvstore spill tier (cache.go) — and
// answers K-hop sampling queries with a fixed number of local lookups and
// zero network communication.
//
// Worker anatomy (Fig. 6): polling loops fetch cache messages from this
// worker's sample queue; a data-updating pool applies them to the cache; a
// serving pool executes sampling queries from the frontend.
package serving

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/actor"
	"helios/internal/clock"
	"helios/internal/graph"
	"helios/internal/kvstore"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/overload"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/wire"
)

// Config assembles a serving worker.
type Config struct {
	// ID is this worker's index in [0, NumServers); it owns partition ID of
	// the samples topic and the seeds hashing to it.
	ID int
	// NumServers (N) sizes the serving partitioning.
	NumServers int
	// Plans are the registered query plans.
	Plans []*query.Plan
	// Broker carries the sample queues (local broker or RPC client).
	Broker mq.Bus
	// Store configures the cache's spill tier: with a Dir, cells beyond
	// MemBudgetBytes go to a kvstore there; an empty Dir is memory only.
	Store kvstore.Options
	// Thread-pool sizes. Zero values default to 2 update, 8 serve.
	UpdateThreads, ServeThreads int
	// TTL expires cache entries untouched for this long; 0 disables.
	TTL time.Duration
	// MaxInflight bounds concurrently admitted sampling RPCs (the serving
	// admission limiter); 0 defaults to 4×ServeThreads. Requests beyond the
	// bound queue (up to MaxAdmitQueue) and then shed.
	MaxInflight int
	// MaxAdmitQueue bounds RPCs waiting for admission; 0 defaults to the
	// mailbox depth.
	MaxAdmitQueue int
	// Degrade serves a degraded result — the cached K-hop answer assembled
	// inline, skipping the serve-pool queue — when the admission limiter
	// sheds a request that still has deadline budget. Off by default;
	// a deployment enables it with overload.degrade in its config file.
	Degrade bool
	// DegradeInflight bounds concurrent degraded-path assemblies; 0
	// defaults to ServeThreads.
	DegradeInflight int
	// CommitEvery paces committing the sample-queue poll position back to
	// the broker (broker-side lag for ingestion backpressure); 0 defaults
	// to 100ms.
	CommitEvery time.Duration
	// MaxBatch caps the members accepted in one MethodSampleBatch frame —
	// a bound on how much work one admission slot can represent. 0
	// defaults to 1024; binaries set it via -batch-max.
	MaxBatch int
	// Clock is the time source for latency stamps, TTL sweeps, and request
	// spans; nil defaults to the wall clock. Tests inject a fake so latency
	// assertions never sleep.
	Clock clock.Clock
	// Metrics receives this worker's counters, histograms and gauges; nil
	// defaults to a private registry (so unit tests never share state).
	// Binaries pass obs.Default() to expose the worker on their ops
	// listener.
	Metrics *obs.Registry
	// Tracer records completed request traces for requests carrying a
	// nonzero trace ID; nil defaults to a private tracer.
	Tracer *obs.Tracer
	// Logger receives structured operational events (deadline expiries,
	// degraded serves, slow traced requests), each stamped with the
	// request's trace ID. Nil disables logging.
	Logger *obs.Logger
	// SlowLog logs traced requests whose service time meets this
	// threshold (trace-correlated tail forensics); 0 disables.
	SlowLog time.Duration
}

// mailboxDepth bounds the worker's actor queues.
const mailboxDepth = 1024

func (c *Config) fill() error {
	if c.NumServers < 1 || c.ID < 0 || c.ID >= c.NumServers {
		return fmt.Errorf("serving: bad worker ID %d of %d", c.ID, c.NumServers)
	}
	if c.Broker == nil {
		return fmt.Errorf("serving: broker is required")
	}
	if c.UpdateThreads <= 0 {
		c.UpdateThreads = 2
	}
	if c.ServeThreads <= 0 {
		c.ServeThreads = 8
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * c.ServeThreads
	}
	if c.MaxAdmitQueue <= 0 {
		c.MaxAdmitQueue = mailboxDepth
	}
	if c.DegradeInflight <= 0 {
		c.DegradeInflight = c.ServeThreads
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 100 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.Clock == nil {
		c.Clock = clock.Wall()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(0, 0)
	}
	return nil
}

// Request is one sampling query submitted to the serving pool.
type Request struct {
	Query query.ID
	Seed  graph.VertexID
	Resp  chan<- Response
	// Trace is the request's trace ID (0 = untraced); traced requests
	// record their stage decomposition into the worker's Tracer.
	Trace uint64
	// Enqueued is the submit nanosecond (worker clock), stamped by Submit;
	// the serving actor derives the queue-wait span from it.
	Enqueued int64
	// Deadline is the request's absolute deadline in nanoseconds on the
	// worker clock's epoch (0 = none). A request found expired at dequeue —
	// or mid-assembly — fails fast with rpc.ErrDeadlineExceeded instead of
	// finishing work the caller already abandoned.
	Deadline int64
	// Batch, when non-nil, makes this a coalesced multi-query request: the
	// serving actor assembles every member in one turn and answers on
	// BatchResp (Query/Seed/Resp/Trace are ignored; routing keys on the
	// first member's seed). Member deadlines derive from BatchItem.Budget
	// pinned at Enqueued, each additionally capped by Deadline — the
	// batch-wide minimum the frame carried.
	Batch []BatchItem
	// BatchResp receives the per-member responses, index-aligned with
	// Batch. Must be buffered, like Resp.
	BatchResp chan<- []Response
}

// Response carries one assembled answer.
type Response struct {
	// Result is the answer in its wire form. It aliases a pooled buffer:
	// Release it once, after its last read.
	Result  Encoded
	Err     error
	Latency time.Duration

	asm *assembly
}

// Release hands the Result's buffer back for the next answer.
func (r Response) Release() {
	if r.asm != nil {
		r.asm.release()
	}
}

// Result is a complete K-hop sampling result: the decoded form of an
// Encoded answer.
type Result struct {
	// Layers[0] is the seed; Layers[k] holds the vertices sampled at hop k
	// (with multiplicity, in parent-major order).
	Layers [][]graph.VertexID
	// Edges lists the sampled parent→child relations per hop.
	Edges []SampledEdge
	// Features holds the cached feature of every distinct vertex in
	// Layers that had one.
	Features map[graph.VertexID][]float32
	// SampleMisses / FeatureMisses count cache lookups that found nothing —
	// nonzero while a subtree is still materializing (eventual
	// consistency) or for vertices with no activity.
	SampleMisses, FeatureMisses int
	// Lookups counts sample-table lookups performed (bounded by
	// Query.MaxLookups).
	Lookups int
	// Degraded marks a result served on the degraded path: assembled
	// inline from the cache under shedding pressure, without waiting on
	// the serve pool (and therefore on any in-flight cache refreshes the
	// queue would have ordered it behind). The answer is exactly as fresh
	// as the cache was at assembly — StalenessNS says how fresh that is.
	Degraded bool
	// StalenessNS is the cache's event-time staleness at assembly for
	// degraded results (0 for normal results): the worker's
	// serving.staleness_ns gauge at the moment the answer was built.
	StalenessNS int64
	// Stages is the request's span decomposition (queue wait, K-hop
	// assembly, feature fetch), carried back over RPC so the frontend can
	// complete the trace.
	Stages []obs.Span
}

// SampledEdge is one sampled relation.
type SampledEdge struct {
	Hop           int
	Parent, Child graph.VertexID
	Ts            graph.Timestamp
	Weight        float32
}

// Stats reports serving-side counters.
type Stats struct {
	Applied       int64
	Served        int64
	SampleHits    int64
	SampleMisses  int64
	FeatureHits   int64
	FeatureMisses int64
	CacheBytes    int64
	QueryLatency  obs.HistSnapshot
	// IngestLatency is update ingestion → applied to this cache: the
	// worker's serving.cache_apply stage histogram.
	IngestLatency obs.HistSnapshot
	UpdateDepth   int
	ServeDepth    int
	// StalenessNS is the event-time staleness of the most recent cache
	// apply: the delta between the causing update's ingestion and its
	// reservoir refresh landing in this cache (§5 freshness).
	StalenessNS int64
	// Panics counts recovered handler panics (should be zero).
	Panics int64
}

// Worker is one serving worker.
type Worker struct {
	cfg   Config
	plans map[query.ID]*query.Plan
	cache *cache

	samplesTopic mq.TopicHandle
	consumed     atomic.Int64
	// startOffset is where Start opens the sample-queue consumer: 0 for a
	// cold start, the snapshot's pinned offset after Restore (warm
	// restart replays only the tail past it). Written only before Start.
	startOffset int64
	lastCommit  atomic.Int64 // worker-clock ns of the last broker commit
	pollers     *actor.Loop

	// limiter admits sampling RPCs; degradedLim bounds the inline degraded
	// path so a shed storm cannot convert itself into unbounded inline work.
	limiter     *overload.Limiter
	degradedLim *overload.Limiter
	updatePool  *actor.Pool[cacheUpdate]
	servePool   *actor.Pool[Request]
	sweeper     *actor.Loop
	sweepStop   chan struct{}

	// lifeMu serializes Start/Stop; started alone is not enough — a
	// concurrent Stop must not observe started=true before Start has
	// finished wiring the pools.
	lifeMu  sync.Mutex
	started bool

	// Metric handles resolved from cfg.Metrics at construction; updates
	// stay lock-free on the hot path.
	applied       *obs.Counter
	served        *obs.Counter
	sampleHits    *obs.Counter
	sampleMisses  *obs.Counter
	featureHits   *obs.Counter
	featureMisses *obs.Counter
	degraded      *obs.Counter
	deadlineExp   *obs.Counter
	queryLat      *obs.Histogram
	staleness     *obs.Gauge

	// Per-stage histograms (one family shared by all workers on a registry,
	// except cache_apply, which backs this worker's Stats().IngestLatency
	// and so carries its worker label; traced requests pin exemplars).
	stQueueWait  *obs.Histogram
	stKHop       *obs.Histogram
	stFeature    *obs.Histogram
	stEncode     *obs.Histogram
	stCacheApply *obs.Histogram
}

// New assembles a worker; call Start to begin consuming cache updates.
func New(cfg Config) (*Worker, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c, err := newCache(cfg.Store)
	if err != nil {
		return nil, err
	}
	w := &Worker{cfg: cfg, cache: c, plans: make(map[query.ID]*query.Plan)}
	for _, p := range cfg.Plans {
		w.plans[p.QueryID] = p
	}
	if w.samplesTopic, err = cfg.Broker.OpenTopic(wire.TopicSamples, cfg.NumServers); err != nil {
		c.close()
		return nil, err
	}
	w.limiter = overload.NewLimiter(overload.Config{
		Stage:       "serving",
		MaxInflight: cfg.MaxInflight,
		MaxQueue:    cfg.MaxAdmitQueue,
		Clock:       cfg.Clock,
		Metrics:     cfg.Metrics,
	})
	w.degradedLim = overload.NewLimiter(overload.Config{
		Stage:       "serving_degraded",
		MaxInflight: cfg.DegradeInflight,
		MaxQueue:    -1, // TryAcquire only: the degraded path never queues
		Clock:       cfg.Clock,
		Metrics:     cfg.Metrics,
	})
	w.registerMetrics()
	return w, nil
}

// registerMetrics resolves the worker's metric handles from the registry
// and publishes scrape-time gauges for state the worker already tracks.
func (w *Worker) registerMetrics() {
	reg := w.cfg.Metrics
	worker := fmt.Sprint(w.cfg.ID)
	w.applied = reg.Counter("serving.applied", "worker", worker)
	w.served = reg.Counter("serving.served", "worker", worker)
	w.sampleHits = reg.Counter("serving.sample_hits", "worker", worker)
	w.sampleMisses = reg.Counter("serving.sample_misses", "worker", worker)
	w.featureHits = reg.Counter("serving.feature_hits", "worker", worker)
	w.featureMisses = reg.Counter("serving.feature_misses", "worker", worker)
	// Degraded answers are an overload-control outcome: the registry's
	// overload.degraded total (overload.RegisterMetrics) sums this family.
	w.degraded = reg.Counter("overload.degraded", "worker", worker)
	w.deadlineExp = reg.Counter("serving.deadline_expired", "worker", worker)
	w.queryLat = reg.Histogram("serving.query_latency_ns", "worker", worker)
	w.staleness = reg.Gauge("serving.staleness_ns", "worker", worker)
	reg.GaugeFunc("serving.cache_bytes", w.CacheBytes, "worker", worker)
	reg.GaugeFunc("mq.consumer_lag", w.Lag,
		"topic", wire.TopicSamples, "partition", worker)
	w.stQueueWait = reg.Stage(obs.StageServingQueueWait).WithClock(w.cfg.Clock)
	w.stKHop = reg.Stage(obs.StageServingKHop).WithClock(w.cfg.Clock)
	w.stFeature = reg.Stage(obs.StageServingFeature).WithClock(w.cfg.Clock)
	w.stEncode = reg.Stage(obs.StageServingEncode).WithClock(w.cfg.Clock)
	w.stCacheApply = reg.Stage(obs.StageServingCacheApply, "worker", worker).WithClock(w.cfg.Clock)
}

// Start launches the pools and polling loop.
func (w *Worker) Start() {
	// The cursor is a plain struct opened outside lifeMu (cheap, no
	// resources held) — a Start that loses the started race just drops it.
	// It opens at the snapshot's pinned offset (0 cold), so a restored
	// worker replays only the tail its snapshot has not absorbed.
	cons := w.samplesTopic.OpenConsumer(w.cfg.ID, w.startOffset)
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	if w.started {
		return
	}
	w.started = true
	w.updatePool = actor.NewPool("cache-update", w.cfg.UpdateThreads, mailboxDepth, w.applyUpdate)
	w.servePool = actor.NewPool("serve", w.cfg.ServeThreads, mailboxDepth, w.handleRequest)
	w.pollers = actor.NewLoop(1, func(int) bool { return w.poll(cons) })
	if w.cfg.TTL > 0 {
		w.sweepStop = make(chan struct{})
		w.sweeper = actor.NewLoop(1, func(int) bool {
			select {
			case <-w.sweepStop:
				return false
			case <-time.After(w.cfg.TTL / 4):
			}
			w.sweep(w.cfg.Clock.Now().Add(-w.cfg.TTL).UnixNano())
			return true
		})
	}
}

// Stop halts polling, drains the update and serve pools, and closes the
// cache's spill tier.
func (w *Worker) Stop() {
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	if !w.started {
		return
	}
	w.started = false
	w.pollers.Stop()
	if w.sweeper != nil {
		close(w.sweepStop)
		w.sweeper.Stop()
	}
	w.updatePool.Close()
	w.servePool.Close()
	w.cache.close()
}

const (
	pollBatch = 512
	// pollRetryDelay paces the poll loop while the broker is unreachable.
	pollRetryDelay = 50 * time.Millisecond
)

func (w *Worker) poll(c mq.Cursor) bool {
	recs, err := c.Poll(pollBatch, 50*time.Millisecond)
	if err != nil {
		if mq.IsFatal(err) {
			return false
		}
		// Transient (broker restarting, injected fault): pause briefly and
		// keep polling — the reconnecting transport heals underneath.
		time.Sleep(pollRetryDelay)
		return true
	}
	for _, rec := range recs {
		m, err := wire.Decode(rec.Value)
		if err != nil {
			continue
		}
		w.updatePool.Send(uint64(m.Vertex), cacheUpdate{msg: m})
	}
	w.consumed.Store(c.Offset())
	w.maybeCommit(c)
	return true
}

// maybeCommit pushes the poll position to the broker at most once per
// CommitEvery. The committed offset feeds the broker-side lag signal used
// for ingestion backpressure; it is purely advisory, so a lost commit only
// delays that signal by one interval.
func (w *Worker) maybeCommit(c mq.Cursor) {
	now := w.cfg.Clock.Now().UnixNano()
	last := w.lastCommit.Load()
	if now-last < w.cfg.CommitEvery.Nanoseconds() {
		return
	}
	if !w.lastCommit.CompareAndSwap(last, now) {
		return
	}
	//lint:allow droppederror reason=best-effort commit: failure only delays the broker's lag signal one interval
	_ = c.Commit()
}

// cacheUpdate is one update-pool mailbox item: a decoded cache message,
// or — when barrier is non-nil — a snapshot barrier that acks on the
// channel instead of touching the store. Barriers ride the same FIFO
// mailboxes as messages, so acking one proves every message enqueued to
// that actor before it has been fully applied (the sampler's
// checkpoint-through-the-mailbox discipline).
type cacheUpdate struct {
	msg     wire.Message
	barrier chan<- struct{}
}

// applyUpdate is the data-updating pool handler: barrier acks pass
// through, everything else is a cache message.
//
//lint:hotpath
func (w *Worker) applyUpdate(worker int, u cacheUpdate) {
	if u.barrier != nil {
		u.barrier <- struct{}{}
		return
	}
	w.applyMessage(worker, u.msg)
}

// applyMessage applies one decoded cache message. It runs once per queue
// message, which at paper scale is millions of times per second: the cell
// takes ownership of the slices wire.Decode allocated — no copy, no encode —
// and the apply is one pointer swap under a shard lock.
//
//lint:hotpath
func (w *Worker) applyMessage(_ int, m wire.Message) {
	now := w.cfg.Clock.Now().UnixNano()
	var err error
	switch m.Kind {
	case wire.KindSampleUpsert:
		err = w.cache.setSamples(cellKey{m.Hop, m.Vertex}, &sampleCell{touch: now, refs: m.Samples})
	case wire.KindSampleEvict:
		err = w.cache.setSamples(cellKey{m.Hop, m.Vertex}, nil)
	case wire.KindFeatureUpdate:
		err = w.cache.setFeature(m.Vertex, &featureCell{touch: now, vals: m.Feature})
	case wire.KindFeatureEvict:
		err = w.cache.setFeature(m.Vertex, nil)
	default:
		return
	}
	if err != nil {
		return // the spill tier is closing
	}
	w.applied.Inc()
	if m.Ingested > 0 {
		// Sample-table staleness (§5 freshness): event-time delta between
		// the causing update's ingestion and this cache refresh. The two
		// stamps come from different hosts, so skew can put the ingest
		// stamp ahead of this clock; staleness is never negative.
		lat := max(now-m.Ingested, 0)
		w.stCacheApply.Observe(lat, m.Trace)
		w.staleness.Set(lat)
		if m.Trace != 0 {
			// A traced ingest reached this cache — close the update-path
			// leg of the trace so /traces can attribute freshness.
			w.cfg.Tracer.Record(obs.Trace{
				ID: m.Trace, Op: "cache_apply", Start: m.Ingested, Total: lat,
				Spans: []obs.Span{{Name: obs.StageServingCacheApply, Dur: lat}},
			})
		}
	}
}

// Submit enqueues a request on the serving pool; the response arrives on
// req.Resp (or req.BatchResp for a coalesced batch). Requests for one
// seed serialize on one serving actor; a batch serializes behind its
// first member's seed.
func (w *Worker) Submit(req Request) {
	if req.Enqueued == 0 {
		req.Enqueued = w.cfg.Clock.Now().UnixNano()
	}
	key := uint64(req.Seed)
	if len(req.Batch) > 0 {
		key = uint64(req.Batch[0].Seed)
	}
	w.servePool.Send(key, req)
}

// handleRequest is the serving actor turn: one queued request — or one
// coalesced batch — checked against its deadline, assembled, traced, and
// answered.
//
//lint:hotpath
func (w *Worker) handleRequest(_ int, req Request) {
	if req.Batch != nil {
		w.handleBatch(req)
		return
	}
	out := w.serveOne(req)
	if req.Resp != nil {
		req.Resp <- out
	}
}

// handleBatch assembles every member of a coalesced batch back to back in
// the one actor turn the batch occupies: one dequeue, K-hop loops run
// consecutively, per-member stage spans and slow-log exactly as if each
// had arrived alone. Members expired by their own budget fail fast
// individually without disturbing their batchmates.
//
//lint:hotpath
func (w *Worker) handleBatch(req Request) {
	out := make([]Response, len(req.Batch))
	for i := range req.Batch {
		it := &req.Batch[i]
		one := Request{Query: it.Query, Seed: it.Seed, Trace: it.Trace, Enqueued: req.Enqueued}
		if it.Budget > 0 && req.Enqueued > 0 {
			one.Deadline = req.Enqueued + it.Budget
		}
		if req.Deadline > 0 && (one.Deadline == 0 || req.Deadline < one.Deadline) {
			one.Deadline = req.Deadline
		}
		out[i] = w.serveOne(one)
	}
	if req.BatchResp != nil {
		req.BatchResp <- out
	}
}

// serveOne runs one request's deadline check, assembly, stage spans,
// slow-log and trace recording.
//
//lint:hotpath
func (w *Worker) serveOne(req Request) Response {
	start := w.cfg.Clock.Now()
	if req.Deadline > 0 && start.UnixNano() >= req.Deadline {
		// The caller's budget burned up while this request sat in the serve
		// queue: fail fast instead of assembling an answer nobody is waiting
		// for (the tentpole's "abandon work when the caller gives up").
		w.deadlineExp.Inc()
		if req.Trace != 0 {
			w.cfg.Logger.Warn(req.Trace, obs.StageServingQueueWait,
				"deadline expired in serve queue", "seed", uint64(req.Seed))
		}
		return Response{Err: rpc.ErrDeadlineExceeded}
	}
	a := getAssembly()
	if req.Enqueued > 0 {
		a.spans = append(a.spans, obs.Span{Name: obs.StageServingQueueWait, Dur: max(start.UnixNano()-req.Enqueued, 0)})
	}
	err := w.assemble(a, req.Query, req.Seed, req.Deadline, req.Trace)
	end := w.cfg.Clock.Now()
	if err != nil {
		a.release()
		return Response{Err: err, Latency: end.Sub(start)}
	}
	if req.Enqueued > 0 {
		w.stQueueWait.Observe(a.spans[0].Dur, req.Trace)
	}
	if req.Trace != 0 && w.cfg.SlowLog > 0 && end.Sub(start) >= w.cfg.SlowLog && w.cfg.Logger.Enabled(obs.LevelInfo) {
		worst := obs.Span{}
		for _, s := range a.spans {
			if s.Dur > worst.Dur {
				worst = s
			}
		}
		w.cfg.Logger.Info(req.Trace, worst.Name, "slow serve",
			"seed", uint64(req.Seed), "service", end.Sub(start), "worst_stage_dur", time.Duration(worst.Dur))
	}
	if req.Trace != 0 {
		// Total covers queue wait + service so the spans always sum to at
		// most the recorded end-to-end time.
		traceStart := req.Enqueued
		if traceStart == 0 {
			traceStart = start.UnixNano()
		}
		w.cfg.Tracer.Record(obs.Trace{
			ID: req.Trace, Op: "sample", Start: traceStart,
			Total: end.UnixNano() - traceStart, Spans: slices.Clone(a.spans),
		})
	}
	return Response{Result: a.finish(false, 0), Latency: end.Sub(start), asm: a}
}

// unknownQuery is the outlined cold path for assemble's plan lookup miss, so
// the hot actor turn does not carry a fmt call.
func unknownQuery(qid query.ID) error {
	return fmt.Errorf("serving: unknown query %d", qid)
}

// Sample assembles the K-hop answer for seed from the local cache (§6) and
// decodes it.
func (w *Worker) Sample(qid query.ID, seed graph.VertexID) (*Result, error) {
	a := getAssembly()
	defer a.release()
	if err := w.assemble(a, qid, seed, 0, 0); err != nil {
		return nil, err
	}
	return a.finish(false, 0).Decode()
}

// SampleDegraded assembles the cached K-hop answer inline — on the caller's
// goroutine, skipping the serve pool and any in-flight cache refreshes the
// queue would have ordered it behind. It is the graceful-degradation path:
// when the admission limiter sheds a request that still has budget, a
// slightly stale answer now beats a shed. The answer is marked degraded with
// the cache's staleness at assembly. A dedicated TryAcquire-only limiter
// bounds concurrent inline assemblies so a shed storm cannot turn into
// unbounded inline work.
func (w *Worker) SampleDegraded(qid query.ID, seed graph.VertexID) Response {
	release, ok := w.degradedLim.TryAcquire()
	if !ok {
		return Response{Err: overload.Shed("serving", "degraded_full")}
	}
	defer release()
	a := getAssembly()
	if err := w.assemble(a, qid, seed, 0, 0); err != nil {
		a.release()
		return Response{Err: err}
	}
	w.degraded.Inc()
	return Response{Result: a.finish(true, w.staleness.Value()), asm: a}
}

// sweep deletes cache cells untouched since cutoff.
func (w *Worker) sweep(cutoff int64) {
	//lint:allow droppederror reason=only a closing spill tier fails a sweep, and the next sweep retries
	_ = w.cache.sweep(cutoff)
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() Stats {
	s := Stats{
		Applied:       w.applied.Value(),
		Served:        w.served.Value(),
		SampleHits:    w.sampleHits.Value(),
		SampleMisses:  w.sampleMisses.Value(),
		FeatureHits:   w.featureHits.Value(),
		FeatureMisses: w.featureMisses.Value(),
		CacheBytes:    w.cache.footprint(),
		QueryLatency:  w.queryLat.Snapshot(),
		IngestLatency: w.stCacheApply.Snapshot(),
		StalenessNS:   w.staleness.Value(),
	}
	if w.updatePool != nil {
		s.UpdateDepth = w.updatePool.Depth()
		s.Panics += w.updatePool.Panics.Value()
	}
	if w.servePool != nil {
		s.ServeDepth = w.servePool.Depth()
		s.Panics += w.servePool.Panics.Value()
	}
	return s
}

// CacheBytes reports the cache footprint (Fig. 16).
func (w *Worker) CacheBytes() int64 { return w.cache.footprint() }

// CacheEntries counts live cache entries.
func (w *Worker) CacheEntries() (int, error) { return w.cache.len() }

// HasSample reports whether the cache holds a sample cell for (hop, v) —
// introspection for tests and operations tooling.
func (w *Worker) HasSample(hop query.HopID, v graph.VertexID) bool {
	return w.cache.samples(hop, v) != nil
}

// CachedSamples returns a copy of the cached reservoir snapshot for
// (hop, v), or nil.
func (w *Worker) CachedSamples(hop query.HopID, v graph.VertexID) []wire.SampleRef {
	if cell := w.cache.samples(hop, v); cell != nil {
		return slices.Clone(cell.refs)
	}
	return nil
}

// HasFeature reports whether the cache holds a feature for v.
func (w *Worker) HasFeature(v graph.VertexID) bool { return w.cache.feature(v) != nil }

// Lag reports the unconsumed backlog of this worker's sample queue
// (log-end offset minus the committed poll position).
func (w *Worker) Lag() int64 {
	return w.samplesTopic.EndOffset(w.cfg.ID) - w.consumed.Load()
}

// ID returns the worker index.
func (w *Worker) ID() int { return w.cfg.ID }

// Config returns the configuration the worker runs with, defaults filled.
func (w *Worker) Config() Config { return w.cfg }
