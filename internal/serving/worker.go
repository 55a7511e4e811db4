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
	"runtime"
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
	// ServeThreads sizes the serve pool and the admission limiter in front
	// of it: as many sampling batches are admitted at once as there are
	// serve actors, each running on the actor its admission slot names,
	// and as many more may wait. 0 defaults to runtime.GOMAXPROCS(0), one
	// serve actor per CPU the process may use.
	ServeThreads int
	// TTL expires cache entries untouched for this long; 0 disables.
	TTL time.Duration
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
	// sheds, slow traced requests), each stamped with the request's trace
	// ID. Nil disables logging.
	Logger *obs.Logger
	// SlowLog logs traced requests whose service time meets this
	// threshold (trace-correlated tail forensics); 0 disables.
	SlowLog time.Duration
}

const (
	// mailboxDepth bounds the worker's actor queues.
	mailboxDepth = 1024
	// updateThreads sizes the pool that applies cache updates.
	updateThreads = 2
	// commitEvery paces committing the sample-queue poll position.
	commitEvery = 100 * time.Millisecond
)

func (c *Config) fill() error {
	if c.NumServers < 1 || c.ID < 0 || c.ID >= c.NumServers {
		return fmt.Errorf("serving: bad worker ID %d of %d", c.ID, c.NumServers)
	}
	if c.Broker == nil {
		return fmt.Errorf("serving: broker is required")
	}
	if c.ServeThreads <= 0 {
		c.ServeThreads = runtime.GOMAXPROCS(0)
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

// request is an admitted batch of sampling queries on its way to the serve
// actor its admission slot names; a lone query is a batch of one. The actor
// assembles every member in one turn, answers on resp, and then frees the
// slot.
type request struct {
	// batch holds the members. Traced members record their stage
	// decomposition into the worker's Tracer.
	batch []BatchItem
	// resp receives the per-member responses, index-aligned with batch.
	// It is buffered, so an actor answering a waiter that gave up never
	// blocks.
	resp chan []Response
	// release frees the batch's admission slot; the actor calls it once
	// the turn has answered.
	release func()
	// enqueued is the admission nanosecond (worker clock); the serving
	// actor derives the queue-wait span from it.
	enqueued int64
	// deadline is the batch's absolute deadline in nanoseconds on the
	// worker clock's epoch (0 = none): the minimum the frame carried. A
	// member found expired at dequeue — or mid-assembly — fails fast with
	// rpc.ErrDeadlineExceeded instead of finishing work the caller already
	// abandoned.
	deadline int64
}

// Response carries one assembled answer.
type Response struct {
	// Result is the answer in its wire form. It aliases a pooled buffer:
	// Release it once, after its last read.
	Result Encoded
	Err    error

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
	// Undecodable counts the sample-queue records the poll loop skipped.
	Undecodable int64
}

// Worker is one serving worker.
type Worker struct {
	cfg   Config
	plans map[query.ID]*query.Plan
	cache *cache

	samplesTopic mq.TopicHandle
	consumed     atomic.Int64
	undecodable  atomic.Int64 // records the poll loop skipped
	// startOffset is where Start opens the sample-queue consumer: 0 for a
	// cold start, the snapshot's pinned offset after Restore (warm
	// restart replays only the tail past it). Written only before Start.
	startOffset int64
	lastCommit  atomic.Int64 // worker-clock ns of the last broker commit
	pollers     *actor.Loop

	// limiter admits sampling RPCs: a batch takes or loses one slot.
	limiter    *overload.Limiter
	updatePool *actor.Pool[cacheUpdate]
	servePool  *actor.Pool[request]
	sweeper    *actor.Loop

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
	deadlineExp   *obs.Counter
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
		MaxInflight: cfg.ServeThreads,
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
	w.deadlineExp = reg.Counter("serving.deadline_expired", "worker", worker)
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
	w.updatePool = actor.NewPool("cache-update", updateThreads, mailboxDepth, w.applyUpdate)
	w.servePool = actor.NewPool("serve", w.cfg.ServeThreads, mailboxDepth, w.handleRequest)
	w.pollers = actor.NewLoop(1, func(_ int, stop <-chan struct{}) bool { return w.poll(cons, stop) })
	w.sweeper = actor.Every(w.cfg.TTL/4, func() { w.sweep(w.cfg.Clock.Now().Add(-w.cfg.TTL).UnixNano()) })
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
	w.sweeper.Stop()
	w.updatePool.Close()
	w.servePool.Close()
	w.cache.close()
}

const (
	pollBatch = 512
	// pollRetryDelay paces the poll loop while the broker is unreachable.
	pollRetryDelay = 50 * time.Millisecond
)

func (w *Worker) poll(c mq.Cursor, stop <-chan struct{}) bool {
	recs, err := c.Poll(pollBatch, 50*time.Millisecond)
	if err != nil {
		// Transient (broker restarting, injected fault): pause briefly and
		// keep polling — the reconnecting transport heals underneath.
		return !mq.IsFatal(err) && actor.Sleep(stop, pollRetryDelay)
	}
	for _, rec := range recs {
		if m, err := wire.Decode(rec.Value); err == nil {
			w.updatePool.Send(uint64(m.Vertex), cacheUpdate{msg: m})
		} else {
			w.undecodable.Add(1)
		}
	}
	w.consumed.Store(c.Offset())
	w.maybeCommit(c)
	return true
}

// maybeCommit pushes the poll position to the broker at most once per
// commitEvery. The committed offset feeds the broker-side lag signal used
// for ingestion backpressure; it is purely advisory, so a lost commit only
// delays that signal by one interval.
func (w *Worker) maybeCommit(c mq.Cursor) {
	now := w.cfg.Clock.Now().UnixNano()
	last := w.lastCommit.Load()
	if now-last < commitEvery.Nanoseconds() {
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

// handleRequest is the serving actor turn: every member of one admitted
// batch assembled back to back — one dequeue, K-hop loops run
// consecutively, per-member stage spans and slow-log exactly as if each had
// arrived alone, all under the batch's one deadline. The turn answers and
// then frees the batch's admission slot, so the slot stays held while its
// actor is busy, whether or not the waiter is still there.
//
//lint:hotpath
func (w *Worker) handleRequest(_ int, req request) {
	defer req.release() // a panicking turn frees its slot too
	out := make([]Response, len(req.batch))
	for i := range req.batch {
		out[i] = w.serveOne(&req.batch[i], req.enqueued, req.deadline)
	}
	req.resp <- out
}

// serveOne runs one member's deadline check, assembly, stage spans,
// slow-log and trace recording. deadline is the batch's (0 = none).
//
//lint:hotpath
func (w *Worker) serveOne(it *BatchItem, enqueued, deadline int64) Response {
	start := w.cfg.Clock.Now()
	if deadline > 0 && start.UnixNano() >= deadline {
		// The caller's budget burned up while this request sat in the serve
		// queue: fail fast instead of assembling an answer nobody is waiting
		// for (the tentpole's "abandon work when the caller gives up").
		w.deadlineExp.Inc()
		if it.Trace != 0 {
			w.cfg.Logger.Warn(it.Trace, obs.StageServingQueueWait,
				"deadline expired in serve queue", "seed", uint64(it.Seed))
		}
		return Response{Err: rpc.ErrDeadlineExceeded}
	}
	a := getAssembly()
	a.spans = append(a.spans, obs.Span{Name: obs.StageServingQueueWait, Dur: max(start.UnixNano()-enqueued, 0)})
	err := w.assemble(a, it.Query, it.Seed, deadline, it.Trace)
	end := w.cfg.Clock.Now()
	if err != nil {
		a.release()
		return Response{Err: err}
	}
	w.stQueueWait.Observe(a.spans[0].Dur, it.Trace)
	if it.Trace != 0 && w.cfg.SlowLog > 0 && end.Sub(start) >= w.cfg.SlowLog && w.cfg.Logger.Enabled(obs.LevelInfo) {
		worst := obs.Span{}
		for _, s := range a.spans {
			if s.Dur > worst.Dur {
				worst = s
			}
		}
		w.cfg.Logger.Info(it.Trace, worst.Name, "slow serve",
			"seed", uint64(it.Seed), "service", end.Sub(start), "worst_stage_dur", time.Duration(worst.Dur))
	}
	if it.Trace != 0 {
		// Total covers queue wait + service so the spans always sum to at
		// most the recorded end-to-end time.
		w.cfg.Tracer.Record(obs.Trace{
			ID: it.Trace, Op: "sample", Start: enqueued,
			Total: end.UnixNano() - enqueued, Spans: slices.Clone(a.spans),
		})
	}
	return Response{Result: a.finish(), asm: a}
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
	return a.finish().Decode()
}

// SampleEncoded assembles the K-hop answer for seed as Sample does, but
// returns it in its wire form: a copy the caller owns, for a consumer that
// takes the bytes as they are (the model server).
func (w *Worker) SampleEncoded(qid query.ID, seed graph.VertexID) (Encoded, error) {
	a := getAssembly()
	defer a.release()
	if err := w.assemble(a, qid, seed, 0, 0); err != nil {
		return nil, err
	}
	return slices.Clone(a.finish()), nil
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
		IngestLatency: w.stCacheApply.Snapshot(),
		StalenessNS:   w.staleness.Value(),
		Undecodable:   w.undecodable.Load(),
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
