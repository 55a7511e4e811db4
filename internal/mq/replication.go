package mq

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"helios/internal/codec"
	"helios/internal/faultpoint"
	"helios/internal/rpc"
)

// Per-partition leader/follower replication (the broker half of the
// robustness story: ROADMAP item 4). Each partition of each topic has one
// leader among the R broker peers; the leader accepts appends, streams
// them to the R−1 followers over the existing rpc plumbing, and acks the
// producer only once a quorum (leader included) holds the bytes. Consumers
// only ever see records below the partition's high watermark — the offset
// up to which a quorum is known to hold everything — so a failover to the
// most-caught-up follower can never un-deliver a record a consumer already
// processed.
//
// Leadership is the versioned PartMap (partmap.go): partition % R by
// default, coordinator-published overrides after a failover. Brokers,
// producers and consumers all apply maps version-monotonically; a broker
// that learns (from a map push or from a replicate frame carrying a newer
// version) that it lost a partition truncates its unreplicated tail back
// to the high watermark and follows the new leader.

// ErrNotLeader reports an operation sent to a broker that does not lead
// the target partition under its current partition map. Retryable after
// re-resolving leadership (Cluster does this automatically); never fatal
// to a poll loop.
var ErrNotLeader = errors.New("mq: not leader")

// ErrQuorumUnavailable reports an append that could not reach its
// replication quorum before the leader's timeout. The record is NOT acked
// — producers should re-resolve leadership and retry; the append may
// surface later as a duplicate, which the §4.1 replay contract tolerates.
var ErrQuorumUnavailable = errors.New("mq: quorum unavailable")

// IsNotLeader reports whether err is a leadership rejection, including one
// that crossed an RPC hop as a RemoteError.
func IsNotLeader(err error) bool {
	if errors.Is(err, ErrNotLeader) {
		return true
	}
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "mq: not leader")
}

// IsQuorumUnavailable reports whether err is a quorum-timeout rejection,
// including one that crossed an RPC hop as a RemoteError.
func IsQuorumUnavailable(err error) bool {
	if errors.Is(err, ErrQuorumUnavailable) {
		return true
	}
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "mq: quorum unavailable")
}

// ReplicationConfig wires one broker into a replica set.
type ReplicationConfig struct {
	// Self is this broker's index into Peers.
	Self int
	// Peers lists every replica's RPC address, index-aligned across the
	// whole deployment (peer i of every broker is the same process).
	Peers []string
	// Quorum is how many replicas (leader included) must hold an append
	// before it is acked; 0 defaults to a majority (R/2 + 1).
	Quorum int
	// Timeout bounds one follower's whole replicate exchange (all gap-heal
	// frames included) and the leader's total wait for quorum acks; 0
	// defaults to 2s.
	Timeout time.Duration
	// After is the timer hook for the quorum wait; nil defaults to
	// time.After. Tests inject a manual channel to exercise the timeout
	// path without real sleeps.
	After func(d time.Duration) <-chan time.Time
}

// replicator is the leader-side fan-out engine plus the follower-offset
// bookkeeping behind the mq.replication_lag gauge.
type replicator struct {
	cfg ReplicationConfig

	mu      sync.Mutex
	clients []*rpc.Client             // index-aligned with cfg.Peers; nil at Self
	acked   map[int]map[PartKey]int64 // peer -> partition -> acked next offset
}

// EnableReplication turns this broker into replica cfg.Self of an R-way
// set. Call it after NewBroker and before serving traffic; existing
// partitions get their high watermark pinned to their current end (a
// restarted replica trusts its own durable log and lets replication
// reconcile followers).
func (b *Broker) EnableReplication(cfg ReplicationConfig) error {
	if len(cfg.Peers) < 1 {
		return fmt.Errorf("mq: replication needs ≥ 1 peer, got %d", len(cfg.Peers))
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return fmt.Errorf("mq: replica index %d out of range [0, %d)", cfg.Self, len(cfg.Peers))
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = len(cfg.Peers)/2 + 1
	}
	if cfg.Quorum < 1 || cfg.Quorum > len(cfg.Peers) {
		return fmt.Errorf("mq: quorum %d out of range [1, %d]", cfg.Quorum, len(cfg.Peers))
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.After == nil {
		cfg.After = time.After
	}
	r := &replicator{cfg: cfg, acked: make(map[int]map[PartKey]int64)}
	r.clients = make([]*rpc.Client, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		if i == cfg.Self {
			continue
		}
		// Reconnecting, no retry budget: the quorum wait is the retry
		// policy here — a failed send is a missing ack, and the next
		// append (or catch-up resend) re-issues the stream.
		c, err := rpc.DialOpts(addr, rpc.Options{Reconnect: true})
		if err != nil {
			return fmt.Errorf("mq: dial replica %d: %w", i, err)
		}
		r.clients[i] = c
	}
	b.mu.Lock()
	b.repl.Store(r)
	for _, t := range b.topics {
		for _, p := range t.parts {
			p.mu.Lock()
			p.hw = p.next
			p.mu.Unlock()
		}
	}
	b.mu.Unlock()
	return nil
}

// Replicated reports whether this broker runs as part of a replica set.
func (b *Broker) Replicated() bool { return b.repl.Load() != nil }

// replicatorRef returns the replication engine (nil when unreplicated).
// Lock-free: the field is write-once before the broker serves traffic.
func (b *Broker) replicatorRef() *replicator { return b.repl.Load() }

// PartMap returns the broker's current leadership view.
func (b *Broker) PartMap() PartMap {
	b.pmMu.RLock()
	defer b.pmMu.RUnlock()
	return b.pm.Clone()
}

// leaderFor resolves the current leader index for (topic, partition).
func (b *Broker) leaderFor(topic string, partition int) int {
	r := b.replicatorRef()
	if r == nil {
		return 0
	}
	b.pmMu.RLock()
	defer b.pmMu.RUnlock()
	return b.pm.Leader(topic, partition, len(r.cfg.Peers))
}

// checkLeader returns ErrNotLeader (wrapped with a leader hint) unless
// this broker leads (topic, partition). A nil replicator always passes —
// an unreplicated broker leads everything.
func (b *Broker) checkLeader(topic string, partition int) error {
	r := b.replicatorRef()
	if r == nil {
		return nil
	}
	if l := b.leaderFor(topic, partition); l != r.cfg.Self {
		return notLeaderError(topic, partition, l)
	}
	return nil
}

// ApplyPartMap adopts a coordinator-published leadership map if it is at
// least as new as the broker's current view. Partitions this broker just
// lost are truncated back to their high watermark (the unreplicated tail
// is abandoned — it was never acked to any producer at quorum); partitions
// it just gained expose their full log (hw = next: promotion happens only
// toward the most-caught-up replica, which holds every quorum-acked
// record).
func (b *Broker) ApplyPartMap(pm PartMap) bool {
	r := b.replicatorRef()
	if r == nil {
		return false
	}
	b.pmMu.Lock()
	if pm.Version < b.pm.Version {
		b.pmMu.Unlock()
		return false
	}
	old := b.pm
	b.pm = pm.Clone()
	b.pmMu.Unlock()

	b.mu.RLock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()
	peers := len(r.cfg.Peers)
	for _, t := range topics {
		for i, p := range t.parts {
			was := old.Leader(t.name, i, peers)
			now := pm.Leader(t.name, i, peers)
			if was == now {
				continue
			}
			if now == r.cfg.Self {
				p.promote()
			} else if was == r.cfg.Self {
				p.demote()
			}
		}
	}
	return true
}

// observeLeader handles the leadership hint carried by every replicate
// frame: a frame with a newer map version than ours proves the sender won
// a promotion we have not heard about yet, so we adopt the override (and
// demote ourselves if we thought we led the partition). Returns false when
// the frame itself is stale — its sender lost the partition.
func (b *Broker) observeLeader(topic string, partition int, leader int, version int64) bool {
	r := b.replicatorRef()
	if r == nil {
		return false
	}
	b.pmMu.Lock()
	if version < b.pm.Version {
		stale := b.pm.Leader(topic, partition, len(r.cfg.Peers)) != leader
		b.pmMu.Unlock()
		return !stale
	}
	wasSelf := b.pm.Leader(topic, partition, len(r.cfg.Peers)) == r.cfg.Self && leader != r.cfg.Self
	if version > b.pm.Version || b.pm.Leaders == nil {
		if b.pm.Leaders == nil {
			b.pm.Leaders = make(map[PartKey]int)
		}
		b.pm.Version = version
		b.pm.Leaders[PartKey{Topic: topic, Partition: partition}] = leader
	}
	b.pmMu.Unlock()
	if wasSelf {
		if t, ok := b.Topic(topic); ok && partition < len(t.parts) {
			t.parts[partition].demote()
		}
	}
	return true
}

// ReplOffsets snapshots every partition's replication offset, the payload
// of the broker's periodic replication-status report to the coordinator.
// Partitions this broker believes it leads report the high watermark (the
// quorum-acked position) rather than the raw log end — the un-acked tail
// is abandoned on demotion and must not inflate this replica's
// caught-up-ness in a failover comparison (see partition.reportOffset).
func (b *Broker) ReplOffsets() []ReplEntry {
	b.mu.RLock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()
	r := b.replicatorRef()
	var out []ReplEntry
	for _, t := range topics {
		for i, p := range t.parts {
			leading := r != nil && b.leaderFor(t.name, i) == r.cfg.Self
			out = append(out, ReplEntry{Topic: t.name, Partition: i, Next: p.reportOffset(leading)})
		}
	}
	return out
}

// replicate fans the records [first, first+n) of (t, part) out to every
// follower and blocks until quorum−1 of them ack (the leader's own copy is
// the quorum's first member), the timeout fires, or enough followers fail
// that quorum is unreachable. On success the partition's high watermark
// advances past the batch, making it visible to consumers.
func (r *replicator) replicate(t *Topic, part int, first int64, n int) error {
	end := first + int64(n)
	followers := len(r.cfg.Peers) - 1
	need := r.cfg.Quorum - 1
	if followers > 0 {
		acks := make(chan bool, followers)
		for peer := range r.cfg.Peers {
			if peer == r.cfg.Self {
				continue
			}
			go func(peer int) { acks <- r.sendTo(peer, t, part, first, end) }(peer)
		}
		if need > 0 {
			timeout := r.cfg.After(r.cfg.Timeout)
			got, failed := 0, 0
			for got < need {
				select {
				case ok := <-acks:
					if ok {
						got++
					} else if failed++; followers-failed < need-got {
						return fmt.Errorf("%w: %d/%d follower acks for %s/%d [%d,%d)",
							ErrQuorumUnavailable, got, need, t.name, part, first, end)
					}
				case <-timeout:
					return fmt.Errorf("%w: timeout with %d/%d follower acks for %s/%d [%d,%d)",
						ErrQuorumUnavailable, got, need, t.name, part, first, end)
				}
			}
		}
	}
	t.parts[part].advanceHW(end)
	return nil
}

// sendTo streams records to one follower until it acks end, healing offset
// gaps along the way: a follower that is behind (restarted, or missed a
// batch whose quorum was met without it) answers with its own next offset
// and the leader resends from there out of the retained window. Returns
// whether the follower acked everything up to end.
func (r *replicator) sendTo(peer int, t *Topic, part int, first, end int64) bool {
	from := first
	version, leader := t.broker.pmVersionLeader(t.name, part)
	// cfg.Timeout budgets the whole gap-healing exchange, not each frame:
	// the producer's quorum wait is armed with the same duration, so a slow
	// follower must be declared failed within it, not within a multiple.
	deadline := time.Now().Add(r.cfg.Timeout)
	for attempt := 0; attempt < 4; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		recs, ok := t.parts[part].readRange(from, end)
		if !ok {
			return false // rewound past retention; follower needs a snapshot we cannot serve
		}
		if err := faultpoint.Inject("mq.replicate.send"); err != nil {
			return false
		}
		frame := encodeReplicateFrame(version, leader, t.name, len(t.parts), part, from, recs)
		resp, err := r.client(peer).Call(MethodReplicate, frame, remaining)
		if err != nil {
			return false
		}
		status, next := decodeReplicateResp(resp)
		switch status {
		case replOK:
			if next < end {
				// Follower applied a prefix (concurrent frame landed
				// first); resend the rest.
				from = next
				continue
			}
			r.recordAck(peer, t.name, part, next)
			t.broker.FollowerAcks.Inc()
			return true
		case replGap:
			if next >= end {
				// Another in-flight frame already delivered our range.
				r.recordAck(peer, t.name, part, next)
				t.broker.FollowerAcks.Inc()
				return true
			}
			from = next
		default: // replStale: we lost leadership mid-send
			return false
		}
	}
	return false
}

func (b *Broker) pmVersionLeader(topic string, part int) (int64, int) {
	r := b.replicatorRef()
	b.pmMu.RLock()
	defer b.pmMu.RUnlock()
	peers := 0
	if r != nil {
		peers = len(r.cfg.Peers)
	}
	return b.pm.Version, b.pm.Leader(topic, part, peers)
}

func (r *replicator) client(peer int) *rpc.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients[peer]
}

func (r *replicator) recordAck(peer int, topic string, part int, next int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.acked[peer]
	if m == nil {
		m = make(map[PartKey]int64)
		r.acked[peer] = m
	}
	k := PartKey{Topic: topic, Partition: part}
	if next > m[k] {
		m[k] = next
	}
}

// lag reports the replication lag of one partition from the leader's seat:
// its log end minus the slowest follower's acked offset (0 when this
// broker does not lead the partition). This is what the
// mq.replication_lag{topic,partition} gauge exports.
func (r *replicator) lag(t *Topic, part int) int64 {
	if t.broker.leaderFor(t.name, part) != r.cfg.Self {
		return 0
	}
	end := t.NextOffset(part)
	k := PartKey{Topic: t.name, Partition: part}
	r.mu.Lock()
	defer r.mu.Unlock()
	min := int64(0)
	first := true
	for peer := range r.cfg.Peers {
		if peer == r.cfg.Self {
			continue
		}
		a := r.acked[peer][k] // zero for a follower that never acked
		if first || a < min {
			min, first = a, false
		}
	}
	if first {
		return 0 // R=1: no followers, nothing can lag
	}
	return end - min
}

// close tears down the follower connections.
func (r *replicator) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
}

// Replicate-frame wire format. Records travel without their offsets —
// they are contiguous from `first` by construction, which is also what
// lets the follower enforce gap-free application.
const (
	replOK    = 0 // follower applied through `next`
	replGap   = 1 // frame starts past the follower's log end; resend from `next`
	replStale = 2 // frame's map version is older than the follower's
)

func encodeReplicateFrame(version int64, leader int, topic string, numParts, part int, first int64, recs []Record) []byte {
	size := 64
	for _, rec := range recs {
		size += 24 + len(rec.Value)
	}
	w := codec.NewWriter(size)
	w.Varint(version)
	w.Uvarint(uint64(leader))
	w.String(topic)
	w.Uvarint(uint64(numParts))
	w.Uvarint(uint64(part))
	w.Varint(first)
	w.Uvarint(uint64(len(recs)))
	for _, rec := range recs {
		w.Uvarint(rec.Key)
		w.Varint(rec.Ts)
		w.Bytes32(rec.Value)
	}
	return w.Bytes()
}

func encodeReplicateResp(status byte, next int64) []byte {
	w := codec.NewWriter(12)
	w.Byte(status)
	w.Varint(next)
	return w.Bytes()
}

func decodeReplicateResp(buf []byte) (status byte, next int64) {
	r := codec.NewReader(buf)
	status = r.Byte()
	next = r.Varint()
	if r.Err() != nil {
		return replStale, 0
	}
	return status, next
}

// ServeReplication registers the follower-side replication surface on srv:
// mq.replicate applies leader streams, mq.lead adopts coordinator-pushed
// partition maps. Serve it alongside ServeBroker on every replica.
func ServeReplication(b *Broker, srv *rpc.Server) {
	srv.Handle(MethodReplicate, func(req []byte) ([]byte, error) {
		if err := faultpoint.Inject("mq.replicate.apply"); err != nil {
			return nil, err
		}
		r := codec.NewReader(req)
		version := r.Varint()
		leader := int(r.Uvarint())
		topic := r.String()
		numParts := int(r.Uvarint())
		part := int(r.Uvarint())
		first := r.Varint()
		n := int(r.Uvarint())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n > r.Remaining() {
			return nil, codec.ErrShortBuffer
		}
		recs := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			rec := Record{Offset: first + int64(i), Key: r.Uvarint(), Ts: r.Varint()}
			val := r.Bytes32()
			v := make([]byte, len(val))
			copy(v, val)
			rec.Value = v
			recs = append(recs, rec)
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
		if !b.observeLeader(topic, part, leader, version) {
			return encodeReplicateResp(replStale, 0), nil
		}
		t, err := b.CreateTopic(topic, numParts)
		if err != nil {
			return nil, err
		}
		if part < 0 || part >= len(t.parts) {
			return nil, fmt.Errorf("mq: partition %d out of range", part)
		}
		next, applied, err := t.parts[part].appendAt(first, recs)
		if err != nil {
			return nil, err
		}
		if applied > 0 {
			b.Appended.Add(int64(applied))
		}
		status := byte(replOK)
		if next < first {
			status = replGap
		}
		return encodeReplicateResp(status, next), nil
	})
	srv.Handle(MethodLead, func(req []byte) ([]byte, error) {
		pm, err := DecodePartMap(req)
		if err != nil {
			return nil, err
		}
		b.ApplyPartMap(pm)
		return nil, nil
	})
}
