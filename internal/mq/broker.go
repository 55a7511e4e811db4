// Package mq implements the durable partitioned log broker Helios uses to
// decouple its stages (§4.1 uses Kafka for the same role): graph updates
// flow through an input topic partitioned across sampling workers, sampled
// results flow through per-serving-worker sample queues, and subscription
// deltas flow through a topic partitioned across sampling workers.
//
// The broker provides the Kafka subset the system depends on: named topics
// with a fixed partition count, strictly ordered append-only partitions,
// offset-addressed blocking fetches, bounded retention, and optional disk
// segments for durability.
package mq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"strconv"
	"strings"

	"helios/internal/faultpoint"
	"helios/internal/obs"
	"helios/internal/rpc"
)

// ErrClosed reports use of a closed broker or partition.
var ErrClosed = errors.New("mq: closed")

// ErrBackpressure reports an append rejected because consumer lag on the
// target partition exceeds the topic's configured bound (SetLagBound):
// the producers are outrunning the consumers, and growing the log further
// would only grow staleness. Producers should slow down and retry; the
// condition clears as consumers catch up and commit.
var ErrBackpressure = errors.New("mq: backpressure: consumer lag bound exceeded")

// IsBackpressure reports whether err is a lag-bound rejection, including
// one that crossed an RPC hop as a RemoteError.
func IsBackpressure(err error) bool {
	if errors.Is(err, ErrBackpressure) {
		return true
	}
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "mq: backpressure")
}

// Record is one log entry.
type Record struct {
	// Offset is the record's position in its partition, starting at 0.
	Offset int64
	// Key carries the routing key (typically a vertex ID).
	Key uint64
	// Value is the payload. Consumers must treat it as read-only.
	Value []byte
}

// FsyncPolicy decides when segment bytes are fsynced relative to the
// append ack. Whatever the policy, segment bytes are always *written*
// before a record becomes visible to consumers; the policy only controls
// how much of the OS page cache a power loss may take with it.
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs every syncEvery appends — the
	// historical behavior: an ack means the bytes reached the page cache,
	// and a power loss can lose up to syncEvery acked records (a process
	// crash alone loses nothing; the cache survives it).
	FsyncInterval FsyncPolicy = iota
	// FsyncNever leaves durability to the OS and segment close.
	FsyncNever
	// FsyncAlways fsyncs before every append ack: an acked offset is on
	// disk, full stop. This is what the replication quorum path wants —
	// a quorum member's ack must survive its own power loss.
	FsyncAlways
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, bool) {
	switch s {
	case "interval", "":
		return FsyncInterval, true
	case "never":
		return FsyncNever, true
	case "always":
		return FsyncAlways, true
	}
	return FsyncInterval, false
}

// String returns the flag spelling of the policy.
func (f FsyncPolicy) String() string {
	switch f {
	case FsyncNever:
		return "never"
	case FsyncAlways:
		return "always"
	}
	return "interval"
}

// Options configures a broker.
type Options struct {
	// Dir enables disk segments under the given directory; empty keeps the
	// broker memory-only (the default for tests and benches).
	Dir string
	// RetainRecords bounds the records kept per partition; 0 means
	// unbounded. Consumers fetching below the retained head are snapped
	// forward to it (matching Kafka's earliest-offset reset).
	RetainRecords int
	// Fsync selects the durability-vs-latency point for segment appends;
	// the zero value is FsyncInterval. Ignored for memory-only brokers.
	Fsync FsyncPolicy
}

// MaxAppendBatch caps the records one remote AppendBatch frame may carry:
// a bound on what a peer can make the broker hold per frame, not a
// local-API restriction. The only producer of large batches, a sampler's
// drained publish run, is at most actor.MaxRun long (internal/sampler
// asserts the fit at compile time).
const MaxAppendBatch = 4096

// Broker owns a set of topics.
type Broker struct {
	mu        sync.RWMutex
	opts      Options
	topics    map[string]*Topic
	lagBounds map[string]int64 // topic name -> lag bound for topics created later
	closed    bool

	// repl is the replication engine, write-once via EnableReplication
	// before the broker serves traffic; nil on an unreplicated broker.
	// Atomic so hot paths read it without touching b.mu.
	repl atomic.Pointer[replicator]
	// pm is the broker's current leadership view, version-gated by
	// ApplyPartMap. Guarded by pmMu, not b.mu, so map refreshes never
	// contend with topic lookups.
	pmMu sync.RWMutex
	pm   PartMap

	// Appended counts records accepted across all topics.
	Appended obs.Counter
	// FollowerAcks counts replica fetches that moved a follower's ack
	// forward on a partition this broker leads; it stays 0 on an
	// unreplicated broker.
	FollowerAcks obs.Counter

	// reg, once set by RegisterMetrics, receives per-partition
	// replication-lag gauges for every topic, including ones created later.
	reg *obs.Registry
	// stAppend times the broker leg of the update path once RegisterMetrics
	// resolves it; nil until then (benches and tests that never register pay
	// nothing). Atomic because appends race a late RegisterMetrics.
	stAppend atomic.Pointer[obs.Histogram]
}

// NewBroker returns an empty broker.
func NewBroker(opts Options) *Broker {
	return &Broker{opts: opts, topics: make(map[string]*Topic), lagBounds: make(map[string]int64)}
}

// CreateTopic creates a topic with the given partition count, or returns
// the existing topic if the partition count matches.
func (b *Broker) CreateTopic(name string, partitions int) (*Topic, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("mq: topic %q needs ≥ 1 partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if t, ok := b.topics[name]; ok {
		if len(t.parts) != partitions {
			return nil, fmt.Errorf("mq: topic %q exists with %d partitions", name, len(t.parts))
		}
		return t, nil
	}
	t := &Topic{name: name, broker: b}
	t.lagBound.Store(b.lagBounds[name])
	for i := 0; i < partitions; i++ {
		p := newPartition(b, name, i)
		if b.opts.Dir != "" {
			if err := p.openSegment(b.opts.Dir); err != nil {
				return nil, err
			}
		}
		t.parts = append(t.parts, p)
	}
	if r := b.repl.Load(); r != nil {
		// A replica trusts its own durable log up to the replayed end and
		// re-verifies it against the leader's (see replicator.adopt).
		r.adopt(t)
	}
	b.topics[name] = t
	if b.reg != nil {
		registerTopicGauges(b.reg, t)
	}
	return t, nil
}

// RegisterMetrics publishes the follower-ack counter on reg, starts timing
// the mq.append stage, and publishes a per-partition replication-lag gauge
// for every topic (current and future).
func (b *Broker) RegisterMetrics(reg *obs.Registry) {
	reg.AddCounter(&b.FollowerAcks, "mq.follower_acks")
	b.mu.Lock()
	b.reg = reg
	b.stAppend.Store(reg.Stage(obs.StageMQAppend))
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	for _, t := range topics {
		registerTopicGauges(reg, t)
	}
}

func registerTopicGauges(reg *obs.Registry, t *Topic) {
	for i := range t.parts {
		part := i
		// Replication lag from the leader's seat: log end minus the
		// slowest follower's acked offset; 0 on an unreplicated broker or
		// for partitions this broker does not lead.
		reg.GaugeFunc("mq.replication_lag",
			func() int64 {
				if r := t.broker.replicatorRef(); r != nil {
					return r.lag(t, part)
				}
				return 0
			},
			"topic", t.name, "partition", strconv.Itoa(part))
	}
}

// topicList snapshots the topics, to walk without holding b.mu.
func (b *Broker) topicList() []*Topic {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		out = append(out, t)
	}
	return out
}

// Topic returns a topic by name.
func (b *Broker) Topic(name string) (*Topic, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	return t, ok
}

// Topics returns the topic names.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	return out
}

// Close shuts the broker down, waking all blocked consumers with ErrClosed
// and closing disk segments.
func (b *Broker) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var firstErr error
	for _, t := range b.topics {
		for _, p := range t.parts {
			if err := p.close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if r := b.repl.Load(); r != nil {
		r.close()
	}
	return firstErr
}

// SetLagBound configures ingestion backpressure for a topic: once any
// partition's broker-side consumer lag (EndOffset - committed offset)
// reaches bound, appends to that partition fail with ErrBackpressure until
// consumers catch up and commit. A bound of 0 disables the check. The bound
// applies immediately to an existing topic and is remembered for a topic
// created later (a restarted broker re-creates topics on demand).
// Partitions that have never seen a commit are exempt — with no consumer
// there is no lag signal, only depth.
func (b *Broker) SetLagBound(topic string, bound int64) {
	if bound < 0 {
		bound = 0
	}
	b.mu.Lock()
	b.lagBounds[topic] = bound
	t := b.topics[topic]
	b.mu.Unlock()
	if t != nil {
		t.lagBound.Store(bound)
	}
}

// Topic is a named, fixed-partition-count log.
type Topic struct {
	name     string
	broker   *Broker
	parts    []*partition
	lagBound atomic.Int64 // max broker-side consumer lag before appends shed
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// NumPartitions returns the partition count.
func (t *Topic) NumPartitions() int { return len(t.parts) }

// Append appends value to an explicit partition and returns its offset: a
// batch of one.
func (t *Topic) Append(partitionIdx int, key uint64, value []byte) (int64, error) {
	return t.AppendBatch(partitionIdx, []BatchRecord{{Key: key, Value: value}})
}

// BatchRecord is one (key, value) pair of an AppendBatch call. The broker
// copies Value, exactly as Append does; both Value and the containing
// slice stay the caller's and may be reused after the call returns.
type BatchRecord struct {
	Key   uint64
	Value []byte
}

// AppendBatch appends recs to one partition under a single partition lock
// pass — one backpressure check, one broadcast — and returns the first
// record's offset once the batch is acked: at once, or on a replicated
// broker once a quorum holds it. The records land contiguously in slice
// order, so the batch occupies [first, first+len(recs)).
func (t *Topic) AppendBatch(partitionIdx int, recs []BatchRecord) (int64, error) {
	off, quorum, err := t.land(partitionIdx, recs)
	if err == nil && quorum != nil {
		err = quorum()
	}
	if err != nil {
		return 0, err
	}
	return off, nil
}

// land is AppendBatch up to the ack: it appends recs and returns, on a
// replicated broker, the quorum wait the ack waits for (nil when unneeded).
// The append stage's stopwatch times land alone.
func (t *Topic) land(partitionIdx int, recs []BatchRecord) (int64, func() error, error) {
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return 0, nil, fmt.Errorf("mq: partition %d out of range for topic %q", partitionIdx, t.name)
	}
	if len(recs) == 0 {
		return t.EndOffset(partitionIdx), nil, nil
	}
	if st := t.broker.stAppend.Load(); st != nil {
		start := time.Now()
		defer func() { st.Observe(time.Since(start).Nanoseconds(), 0) }()
	}
	if err := faultpoint.Inject("mq.append"); err != nil {
		return 0, nil, err
	}
	if err := t.broker.checkLeader(t.name, partitionIdx); err != nil {
		return 0, nil, err
	}
	// One admission decision for the whole batch: the lag bound is a
	// coarse staleness valve, not an exact quota, so a batch is either
	// wholly accepted or wholly shed (partial appends would leave the
	// producer guessing which records landed).
	if bound := t.lagBound.Load(); bound > 0 {
		p := t.parts[partitionIdx]
		p.mu.Lock()
		lagged := p.committed >= 0 && p.next-p.committed >= bound
		p.mu.Unlock()
		if lagged {
			return 0, nil, ErrBackpressure
		}
	}
	off, err := t.parts[partitionIdx].appendBatch(recs)
	if err != nil {
		return 0, nil, err
	}
	t.broker.Appended.Add(int64(len(recs)))
	r := t.broker.replicatorRef()
	if r == nil {
		return off, nil, nil
	}
	// Quorum-gate the whole batch as one unit (it landed contiguously at
	// [off, end)). A failed quorum leaves the records durable locally but
	// unacked — the producer retries, and followers (or a demotion)
	// reconcile the offsets.
	end := off + int64(len(recs))
	return off, func() error { return r.awaitQuorum(t, partitionIdx, end) }, nil
}

// Depth returns the number of retained records in a partition.
func (t *Topic) Depth(partitionIdx int) int64 {
	p := t.parts[partitionIdx]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next - p.head
}

// EndOffset returns the partition's log-end offset: one past the last
// appended record, the offset the next append will get (Kafka's LEO). For
// an empty partition it is 0, and for a partition holding offsets [0, n)
// it is n; the last *delivered* record has offset EndOffset-1.
func (t *Topic) EndOffset(partitionIdx int) int64 {
	p := t.parts[partitionIdx]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// Commit records a consumer's progress on a partition: offset is one past
// the last processed record (Kafka's committed-offset convention). Commits
// only move forward; a stale or duplicate commit is ignored. This is what
// makes broker-side lag — and therefore ingestion backpressure — visible to
// producers that never meet the consumers.
func (t *Topic) Commit(partitionIdx int, offset int64) error {
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return fmt.Errorf("mq: partition %d out of range for topic %q", partitionIdx, t.name)
	}
	if err := t.broker.checkLeader(t.name, partitionIdx); err != nil {
		return err
	}
	p := t.parts[partitionIdx]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if offset > p.next {
		offset = p.next
	}
	if offset > p.committed {
		p.committed = offset
	}
	return nil
}

// CommittedOffset reports the highest committed offset for a partition, or
// -1 while no consumer has ever committed (lag unknown).
func (t *Topic) CommittedOffset(partitionIdx int) int64 {
	if partitionIdx < 0 || partitionIdx >= len(t.parts) {
		return -1
	}
	p := t.parts[partitionIdx]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.committed
}
