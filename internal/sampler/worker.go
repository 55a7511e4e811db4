// Package sampler implements the Helios sampling worker (§4.2, §5): it
// consumes one partition of the graph-update stream, maintains reservoir
// tables for every registered one-hop query, tracks which serving workers
// subscribe to which vertices, and publishes refreshed sample snapshots and
// features to the serving workers' sample queues.
//
// Worker anatomy (Fig. 6), mapped onto actor pools:
//
//   - polling loops fetch updates and subscription deltas from the broker;
//   - a sampling pool, sharded by vertex hash, owns the reservoir, feature
//     and subscription tables (all state for a vertex belongs to exactly one
//     actor, so the tables need no locks);
//   - a publisher pool appends the encoded outbound messages to the serving
//     workers' sample queues and the subs topic, one batch per destination.
//
// Subscription deltas — including those between two vertices owned by the
// same worker — always travel through the broker's subs topic. This keeps
// the cascade acyclic (sampling actors never block on each other's
// mailboxes) and replayable.
package sampler

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/actor"
	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/wire"
)

// Config assembles a sampling worker.
type Config struct {
	// ID is this worker's index in [0, NumSamplers); it owns partition ID
	// of the updates and subs topics.
	ID int
	// NumSamplers (M) and NumServers (N) size the two partitionings.
	NumSamplers, NumServers int
	// Plans are the decomposed queries registered by the coordinator.
	Plans []*query.Plan
	// Schema types the graph.
	Schema *graph.Schema
	// Broker carries all queues (local broker or RPC client).
	Broker mq.Bus
	// Thread-pool sizes (§4.2's thread types). Zero values default to 4
	// sampling, 2 publish; each consumed partition has its one poller.
	SampleThreads, PublishThreads int
	// TTL removes reservoirs and features untouched for this long; 0
	// disables expiry.
	TTL time.Duration
	// Seed makes the randomized strategies reproducible per worker.
	Seed int64
	// CommitEvery paces committing the poll positions back to the broker.
	// The committed updates offset is the lag signal the frontend and
	// broker use for ingestion backpressure; 0 defaults to 100ms.
	CommitEvery time.Duration
	// Clock is the time source for touch stamps and TTL sweeps; nil
	// defaults to the wall clock. Tests inject a fake so expiry and
	// recovery are deterministic (no sleeping), and the walltime analyzer
	// keeps direct time.Now calls out of this package.
	Clock clock.Clock
	// Metrics receives this worker's counters and gauges; nil defaults to
	// a private registry. Binaries pass obs.Default() so the worker shows
	// up on their ops listener.
	Metrics *obs.Registry
}

// mailboxDepth bounds the worker's actor queues.
const mailboxDepth = 1024

func (c *Config) fill() error {
	if c.NumSamplers < 1 || c.ID < 0 || c.ID >= c.NumSamplers {
		return fmt.Errorf("sampler: bad worker ID %d of %d", c.ID, c.NumSamplers)
	}
	if c.NumServers < 1 {
		return fmt.Errorf("sampler: need ≥ 1 serving worker")
	}
	if c.Broker == nil || c.Schema == nil {
		return fmt.Errorf("sampler: broker and schema are required")
	}
	if c.SampleThreads <= 0 {
		c.SampleThreads = 4
	}
	if c.PublishThreads <= 0 {
		c.PublishThreads = 2
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 100 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = clock.Wall()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return nil
}

// hopInfo caches per-one-hop metadata for the dispatch path.
type hopInfo struct {
	oneHop query.OneHop
	next   *query.OneHop // nil on the last hop
}

// Stats reports worker-level counters for the experiments.
type Stats struct {
	UpdatesProcessed int64
	EdgesOffered     int64
	Admissions       int64
	SnapshotsSent    int64
	FeaturesSent     int64
	SubDeltasSent    int64
	Expired          int64
	// PublishConflated counts cache messages superseded before they were
	// appended, PublishDropped records lost to a failed append (publishing
	// is best effort). The *Sent counters count production and include both.
	PublishConflated int64
	PublishDropped   int64
	SamplingDepth    int
	PublishDepth     int
	// Panics counts recovered handler panics across the worker's pools
	// (should always be zero; a nonzero value means a protocol bug was
	// contained by the actor supervisor).
	Panics int64
}

// Worker is one sampling worker.
type Worker struct {
	cfg      Config
	part     graph.Partitioner // over sampling workers
	servPart graph.Partitioner // over serving workers
	hops     map[query.HopID]hopInfo
	byEdge   map[graph.EdgeType][]hopInfo

	updatesTopic mq.TopicHandle
	samplesTopic mq.TopicHandle
	subsTopic    mq.TopicHandle

	shards     []*shard
	updOffset  atomic.Int64
	subsOffset atomic.Int64
	// last*Commit hold the worker-clock ns of each cursor's last broker
	// commit (pacing state for maybeCommit).
	lastUpdCommit  atomic.Int64
	lastSubsCommit atomic.Int64
	// startUpd/startSubs are consumer start positions restored from a
	// checkpoint; replay from there is at-least-once (reprocessing the
	// in-flight window is idempotent for TopK and harmless for Random —
	// the reservoir remains a valid sample).
	startUpd, startSubs int64
	sampling            *actor.Pool[event]
	publish             *actor.Pool[outMsg]
	pubs                []pubState // per publish actor (index = actor worker)
	pollers             *actor.Loop
	sweeper             *actor.Loop
	sweepStop           chan struct{}
	// started is atomic because the background sweeper reads it (via
	// Sweep) while Stop clears it from the control goroutine. lifeMu
	// additionally serializes whole Start/Stop bodies, so a concurrent
	// Stop cannot run against half-wired pools. Sweep must never take
	// lifeMu: Stop holds it while waiting for the sweeper loop (which
	// calls Sweep) to exit.
	lifeMu  sync.Mutex
	started atomic.Bool

	// Metric handles resolved from cfg.Metrics at construction.
	updatesProcessed *obs.Counter
	edgesOffered     *obs.Counter
	admissions       *obs.Counter
	snapshotsSent    *obs.Counter
	featuresSent     *obs.Counter
	subDeltasSent    *obs.Counter
	expired          *obs.Counter
	pubConflated     *obs.Counter
	pubDropped       *obs.Counter
	// staleness is the event-time delta between the most recent update's
	// ingestion and the reservoir refresh it caused (§5 freshness).
	staleness *obs.Gauge
	// stRefresh times one graph-update refresh (reservoir step plus
	// subscription maintenance); traced updates leave exemplars.
	stRefresh *obs.Histogram
}

// event is the sampling pool's message type; exactly one shape per kind.
type event struct {
	kind eventKind
	// update events
	update graph.Update
	origin graph.VertexID // the vertex this event is keyed on
	// subscription events
	hop   query.HopID
	sew   int32
	delta int8
	// sweep events
	cutoff int64
	// checkpoint events
	snap chan<- []byte
	ing  int64
	// trace propagates the causing update's trace ID through the cascade.
	trace uint64
}

type eventKind uint8

const (
	evEdge eventKind = iota + 1
	evVertex
	evSubDelta
	evFeatSubDelta
	evSweep
	evSnapshot
)

// outMsg is the publisher pool's message type: an encoded wire message
// bound for one partition of one topic. key is its vertex; kind, hop and
// traced let the publish turn conflate without decoding the payload.
type outMsg struct {
	topic     mq.TopicHandle
	partition int
	key       uint64
	payload   []byte
	kind      wire.Kind
	hop       query.HopID
	traced    bool
}

// pubKey addresses one destination; a batch never spans two.
type pubKey struct {
	topic     mq.TopicHandle
	partition int
}

// pubBuf is one destination's records for the current turn.
type pubBuf struct {
	pubKey
	recs []mq.BatchRecord
}

// cellKey names one serving-cache cell on one samples partition: a sample
// cell (hop, vertex) or, with feature set, the feature of vertex.
type cellKey struct {
	partition int
	feature   bool
	hop       query.HopID
	vertex    uint64
}

// pubState is one publish actor's scratch, reused across turns and owned
// by that actor alone, so no locking.
type pubState struct {
	bufs    map[pubKey]*pubBuf
	touched []*pubBuf       // this turn's destinations, in first-seen order
	latest  map[cellKey]int // run index of each cell's last message so far
}

// New assembles a worker. Topics are created if absent. Call Start to begin
// consuming.
func New(cfg Config) (*Worker, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:      cfg,
		part:     graph.NewPartitioner(cfg.NumSamplers),
		servPart: graph.NewPartitioner(cfg.NumServers),
		hops:     make(map[query.HopID]hopInfo),
		byEdge:   make(map[graph.EdgeType][]hopInfo),
	}
	for _, plan := range cfg.Plans {
		for i, oh := range plan.OneHops {
			info := hopInfo{oneHop: oh, next: plan.NextHop(i)}
			w.hops[oh.ID] = info
			w.byEdge[oh.Edge] = append(w.byEdge[oh.Edge], info)
		}
	}
	var err error
	if w.updatesTopic, err = cfg.Broker.OpenTopic(wire.TopicUpdates, cfg.NumSamplers); err != nil {
		return nil, err
	}
	if w.samplesTopic, err = cfg.Broker.OpenTopic(wire.TopicSamples, cfg.NumServers); err != nil {
		return nil, err
	}
	if w.subsTopic, err = cfg.Broker.OpenTopic(wire.TopicSubs, cfg.NumSamplers); err != nil {
		return nil, err
	}
	w.shards = make([]*shard, cfg.SampleThreads)
	for i := range w.shards {
		w.shards[i] = newShard(rand.NewSource(cfg.Seed + int64(cfg.ID)*1000 + int64(i)))
	}
	w.pubs = make([]pubState, cfg.PublishThreads)
	for i := range w.pubs {
		w.pubs[i] = pubState{bufs: make(map[pubKey]*pubBuf), latest: make(map[cellKey]int)}
	}
	w.registerMetrics()
	return w, nil
}

// registerMetrics resolves the worker's metric handles from the registry
// and publishes consumer-lag gauges for its two input partitions.
func (w *Worker) registerMetrics() {
	reg := w.cfg.Metrics
	worker := fmt.Sprint(w.cfg.ID)
	w.updatesProcessed = reg.Counter("sampler.updates_processed", "worker", worker)
	w.edgesOffered = reg.Counter("sampler.edges_offered", "worker", worker)
	w.admissions = reg.Counter("sampler.admissions", "worker", worker)
	w.snapshotsSent = reg.Counter("sampler.snapshots_sent", "worker", worker)
	w.featuresSent = reg.Counter("sampler.features_sent", "worker", worker)
	w.subDeltasSent = reg.Counter("sampler.sub_deltas_sent", "worker", worker)
	w.expired = reg.Counter("sampler.expired", "worker", worker)
	w.pubConflated = reg.Counter("sampler.publish_conflated", "worker", worker)
	w.pubDropped = reg.Counter("sampler.publish_dropped", "worker", worker)
	w.staleness = reg.Gauge("sampler.refresh_staleness_ns", "worker", worker)
	w.stRefresh = reg.Stage(obs.StageSamplerRefresh).WithClock(w.cfg.Clock)
	reg.GaugeFunc("mq.consumer_lag", w.Lag,
		"topic", wire.TopicUpdates, "partition", worker)
	reg.GaugeFunc("mq.consumer_lag", w.SubsLag,
		"topic", wire.TopicSubs, "partition", worker)
}

// Start launches the pools and polling loops.
func (w *Worker) Start() {
	// Cursors are plain structs opened outside lifeMu (cheap, no resources
	// held) — a Start that loses the started race just drops them.
	updCons := w.updatesTopic.OpenConsumer(w.cfg.ID, w.startUpd)
	subCons := w.subsTopic.OpenConsumer(w.cfg.ID, w.startSubs)
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	if w.started.Load() {
		return
	}
	w.publish = actor.NewBatchPool("publish", w.cfg.PublishThreads, mailboxDepth, w.publishTurn)
	w.sampling = actor.NewPool("sampling", w.cfg.SampleThreads, mailboxDepth, w.handleEvent)
	// Dedicated pollers per input stream; consumers are not safe for
	// concurrent use, so each stream gets exactly one goroutine.
	w.pollers = actor.NewLoop(2, func(worker int) bool {
		switch worker {
		case 0:
			return w.pollUpdates(updCons)
		default:
			return w.pollSubs(subCons)
		}
	})
	if w.cfg.TTL > 0 {
		w.sweepStop = make(chan struct{})
		w.sweeper = actor.NewLoop(1, func(int) bool {
			select {
			case <-w.sweepStop:
				return false
			case <-time.After(w.cfg.TTL / 4):
			}
			w.Sweep()
			return true
		})
	}
	// Publish started only once the pools are wired: Sweep gates on it.
	w.started.Store(true)
}

// Sweep schedules one TTL sweep pass on every sampling shard, using the
// worker's clock for the cutoff. The background sweeper calls it every
// TTL/4; tests with a fake clock call it directly after advancing time.
func (w *Worker) Sweep() {
	if !w.started.Load() || w.cfg.TTL <= 0 {
		return
	}
	cutoff := w.cfg.Clock.Now().Add(-w.cfg.TTL).UnixNano()
	for i := 0; i < w.sampling.Workers(); i++ {
		w.sampling.SendTo(i, event{kind: evSweep, cutoff: cutoff})
	}
}

// Stop drains the pipeline: polling halts, the sampling pool finishes its
// backlog (publishing as it goes), then the publisher pool drains.
func (w *Worker) Stop() {
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	if !w.started.CompareAndSwap(true, false) {
		return
	}
	w.pollers.Stop()
	if w.sweeper != nil {
		close(w.sweepStop)
		w.sweeper.Stop()
	}
	w.sampling.Close()
	w.publish.Close()
}

const (
	pollBatch = 512
	// pollRetryDelay paces a poll loop while the broker is unreachable.
	pollRetryDelay = 50 * time.Millisecond
)

// pollRetry decides a poll loop's fate after a Poll error: exit on a
// fatal (closed-on-shutdown) error, otherwise pause briefly and keep
// polling — a broker mid-restart is healed by the reconnecting transport,
// and the §4.1 replay contract makes re-reading from the committed offset
// safe.
func (w *Worker) pollRetry(err error) bool {
	if mq.IsFatal(err) {
		return false
	}
	time.Sleep(pollRetryDelay)
	return true
}

func (w *Worker) pollUpdates(c mq.Cursor) bool {
	recs, err := c.Poll(pollBatch, 50*time.Millisecond)
	if err != nil {
		return w.pollRetry(err)
	}
	for _, rec := range recs {
		u, err := codec.DecodeUpdate(rec.Value)
		if err != nil {
			continue // poisoned record; count-and-skip keeps the stream alive
		}
		w.routeUpdate(u)
	}
	w.updOffset.Store(c.Offset())
	w.maybeCommit(c, &w.lastUpdCommit)
	return true
}

// maybeCommit pushes a cursor's poll position to the broker at most once
// per CommitEvery. Committed offsets are the lag signal for ingestion
// backpressure and the at-least-once replay floor; they are advisory, so a
// lost commit only delays the signal by one interval.
func (w *Worker) maybeCommit(c mq.Cursor, last *atomic.Int64) {
	now := w.cfg.Clock.Now().UnixNano()
	prev := last.Load()
	if now-prev < w.cfg.CommitEvery.Nanoseconds() {
		return
	}
	if !last.CompareAndSwap(prev, now) {
		return
	}
	//lint:allow droppederror reason=best-effort commit: failure only delays the broker's lag signal one interval
	_ = c.Commit()
}

// routeUpdate fans an update out to the sampling actors that own state it
// touches. An edge may be keyed on either endpoint depending on hop
// direction; each distinct owned origin gets one event.
func (w *Worker) routeUpdate(u graph.Update) {
	switch u.Kind {
	case graph.UpdateVertex:
		if w.part.Of(u.Vertex.ID) != w.cfg.ID {
			return
		}
		w.updatesProcessed.Inc()
		w.sampling.Send(uint64(u.Vertex.ID), event{kind: evVertex, update: u, origin: u.Vertex.ID})
	case graph.UpdateEdge:
		hops := w.byEdge[u.Edge.Type]
		if len(hops) == 0 {
			return
		}
		w.updatesProcessed.Inc()
		var sent [2]graph.VertexID
		n := 0
	hopLoop:
		for _, h := range hops {
			origin := u.Edge.Origin(h.oneHop.Dir)
			if w.part.Of(origin) != w.cfg.ID {
				continue
			}
			for i := 0; i < n; i++ {
				if sent[i] == origin {
					continue hopLoop
				}
			}
			sent[n] = origin
			n++
			w.sampling.Send(uint64(origin), event{kind: evEdge, update: u, origin: origin})
		}
	}
}

func (w *Worker) pollSubs(c mq.Cursor) bool {
	recs, err := c.Poll(pollBatch, 50*time.Millisecond)
	if err != nil {
		return w.pollRetry(err)
	}
	for _, rec := range recs {
		m, err := wire.Decode(rec.Value)
		if err != nil {
			continue
		}
		switch m.Kind {
		case wire.KindSubDelta:
			w.sampling.Send(uint64(m.Vertex), event{
				kind: evSubDelta, origin: m.Vertex, hop: m.Hop, sew: m.SEW, delta: m.Delta, ing: m.Ingested, trace: m.Trace,
			})
		case wire.KindFeatSubDelta:
			w.sampling.Send(uint64(m.Vertex), event{
				kind: evFeatSubDelta, origin: m.Vertex, sew: m.SEW, delta: m.Delta, ing: m.Ingested, trace: m.Trace,
			})
		}
	}
	w.subsOffset.Store(c.Offset())
	w.maybeCommit(c, &w.lastSubsCommit)
	return true
}

// A whole drained run bound for one destination must fit one AppendBatch
// frame, or the broker would refuse it.
const _ = uint(mq.MaxAppendBatch - actor.MaxRun)

// publishTurn is the publisher pool handler. One turn takes the run the
// actor drained from its mailbox (whatever was already queued, never
// waited for), groups it by destination in mailbox order, and appends one
// batch per destination: one broker operation where a burst used to cost
// one per record, and a batch of one when the message came alone.
//
// Cache messages carry absolute state — a snapshot or feature replaces
// its cell, an evict empties it — so within a run only a cell's last
// message is appended. Different cells commute and the survivor keeps its
// place, so the serving cache converges to the same state (§6). Deltas
// are increments and traced messages someone's evidence: both always go.
//
//lint:hotpath
func (w *Worker) publishTurn(worker int, run []outMsg) {
	ps := &w.pubs[worker]
	if len(run) > 1 {
		for i := range run {
			m := &run[i]
			cell := cellKey{partition: m.partition, hop: m.hop, vertex: m.key}
			switch m.kind {
			case wire.KindSampleUpsert, wire.KindSampleEvict:
			case wire.KindFeatureUpdate, wire.KindFeatureEvict:
				cell.feature = true
			default:
				continue
			}
			if prev, ok := ps.latest[cell]; ok && !run[prev].traced {
				run[prev].payload = nil
				w.pubConflated.Inc()
			}
			ps.latest[cell] = i
		}
		clear(ps.latest)
	}
	for i := range run {
		m := &run[i]
		if m.payload == nil {
			continue // superseded above
		}
		dest := pubKey{topic: m.topic, partition: m.partition}
		pb := ps.bufs[dest]
		if pb == nil {
			pb = &pubBuf{pubKey: dest}
			ps.bufs[dest] = pb
		}
		if len(pb.recs) == 0 {
			ps.touched = append(ps.touched, pb)
		}
		pb.recs = append(pb.recs, mq.BatchRecord{Key: m.key, Value: m.payload})
	}
	for _, pb := range ps.touched {
		// Best effort by design: an unreachable broker drops the batch, and
		// the count says so. The broker copies the payloads; recs is reused.
		if _, err := pb.topic.AppendBatch(pb.partition, pb.recs); err != nil {
			w.pubDropped.Add(int64(len(pb.recs)))
		}
		clear(pb.recs)
		pb.recs = pb.recs[:0]
	}
	ps.touched = ps.touched[:0]
}

// sendToServer enqueues an encoded cache message for serving worker sew.
func (w *Worker) sendToServer(sew int32, m *wire.Message) {
	w.publish.Send(uint64(sew), outMsg{
		topic:     w.samplesTopic,
		partition: int(sew),
		key:       uint64(m.Vertex),
		payload:   wire.Encode(m),
		kind:      m.Kind,
		hop:       m.Hop,
		traced:    m.Trace != 0,
	})
}

// sendSubDelta routes a subscription delta to the sampling worker owning
// the subject vertex (possibly this worker) through the subs topic.
func (w *Worker) sendSubDelta(m *wire.Message) {
	w.subDeltasSent.Inc()
	w.publish.Send(uint64(m.Vertex), outMsg{
		topic:     w.subsTopic,
		partition: w.part.Of(m.Vertex),
		key:       uint64(m.Vertex),
		payload:   wire.Encode(m),
		kind:      m.Kind,
	})
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() Stats {
	s := Stats{
		UpdatesProcessed: w.updatesProcessed.Value(),
		EdgesOffered:     w.edgesOffered.Value(),
		Admissions:       w.admissions.Value(),
		SnapshotsSent:    w.snapshotsSent.Value(),
		FeaturesSent:     w.featuresSent.Value(),
		SubDeltasSent:    w.subDeltasSent.Value(),
		Expired:          w.expired.Value(),
		PublishConflated: w.pubConflated.Value(),
		PublishDropped:   w.pubDropped.Value(),
	}
	if w.sampling != nil {
		s.SamplingDepth = w.sampling.Depth()
		s.Panics += w.sampling.Panics.Value()
	}
	if w.publish != nil {
		s.PublishDepth = w.publish.Depth()
		s.Panics += w.publish.Panics.Value()
	}
	return s
}

// Lag reports the unconsumed backlog of the worker's update partition
// (records appended minus records polled) — used by the separation
// experiment (Fig. 12) and ingestion-latency microbenchmark (Fig. 17).
func (w *Worker) Lag() int64 {
	return w.updatesTopic.EndOffset(w.cfg.ID) - w.updOffset.Load()
}

// SubsLag reports the unconsumed backlog of the worker's subscription
// partition.
func (w *Worker) SubsLag() int64 {
	return w.subsTopic.EndOffset(w.cfg.ID) - w.subsOffset.Load()
}

// ID returns the worker index.
func (w *Worker) ID() int { return w.cfg.ID }

// Config returns the configuration the worker runs with, defaults filled.
func (w *Worker) Config() Config { return w.cfg }
