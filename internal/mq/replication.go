package mq

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"helios/internal/codec"
	"helios/internal/rpc"
)

// Per-partition leader/follower replication (the broker half of the
// robustness story: ROADMAP item 4). Each partition of each topic has one
// leader among the R broker peers; the leader accepts appends and acks the
// producer only once a quorum (leader included) holds them. A follower is a
// subscription: it reads the leader's log through the same mq.fetch stream
// a consumer does, past the high watermark, and the offset it asks for next
// is its ack. Consumers only ever see records below the partition's high
// watermark — the offset up to which a quorum is known to hold everything —
// so a failover to the most-caught-up follower can never un-deliver a
// record a consumer already processed.
//
// Leadership is the versioned PartMap (partmap.go): partition % R by
// default, coordinator-published overrides after a failover. Brokers,
// producers and consumers all apply maps version-monotonically; a broker
// that learns (from a map push or from a follower's fetch carrying a newer
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
	// Timeout bounds the leader's wait for a quorum of acks; 0 defaults to
	// 2s.
	Timeout time.Duration
	// After is the timer hook for the quorum wait; nil defaults to
	// time.After. Tests inject a manual channel to exercise the timeout
	// path without real sleeps.
	After func(d time.Duration) <-chan time.Time
}

// A follower re-opens its fetch at least every maxFetchPark, so one that has
// not asked for a partition in ackStale has no live ack there. followPause
// is how long a follower loop waits out an error or its own leadership.
const (
	ackStale    = 2 * maxFetchPark
	followPause = 50 * time.Millisecond
)

// replicator holds the peer connections both halves share: followers fetch
// from their leaders over them, and a leader opens topics on followers that
// lack them.
type replicator struct {
	cfg     ReplicationConfig
	clients []*rpc.Client // index-aligned with cfg.Peers; nil at Self
	loops   sync.WaitGroup
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
	r := &replicator{cfg: cfg, clients: make([]*rpc.Client, len(cfg.Peers))}
	for i, addr := range cfg.Peers {
		if i == cfg.Self {
			continue
		}
		// Reconnecting, no retry budget: the follower loop and the quorum
		// wait are the retry policy here. A dead leader is re-dialed at the
		// pace an idle fetch re-opens, so a follower stuck dialing it hears
		// of the promotion that replaced it within one park.
		c, err := rpc.DialOpts(addr, rpc.Options{Reconnect: true, BackoffMax: maxFetchPark})
		if err != nil {
			return fmt.Errorf("mq: dial replica %d: %w", i, err)
		}
		r.clients[i] = c
	}
	b.mu.Lock()
	b.repl.Store(r)
	for _, t := range b.topics {
		r.adopt(t)
	}
	b.mu.Unlock()
	return nil
}

// adopt makes t's partitions replicas: the high watermark pinned at the log
// end (a follower's loop moves it back to the head), no acks yet, and a
// follower loop per partition.
func (r *replicator) adopt(t *Topic) {
	for i, p := range t.parts {
		p.mu.Lock()
		p.hw, p.acks = p.next, make([]peerAck, len(r.cfg.Peers))
		p.mu.Unlock()
		r.loops.Add(1)
		go r.follow(t, i)
	}
}

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
// record). A map naming a leader outside the replica set is refused.
func (b *Broker) ApplyPartMap(pm PartMap) bool {
	r := b.replicatorRef()
	if r == nil || !pm.valid(len(r.cfg.Peers)) {
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

	peers := len(r.cfg.Peers)
	for _, t := range b.topicList() {
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

// observeLeader handles the leadership view a follower's fetch carries: a
// newer map version than ours proves a promotion we have not heard about
// yet, so we adopt the override (and demote ourselves if we thought we led
// the partition). Returns false when the view is stale — the follower has
// not heard of a promotion we have.
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
// of the broker's periodic replication-status report to the coordinator:
// the high watermark, which is the quorum's offset for a partition this
// broker leads and its position for one it follows — never the raw log
// end, whose tail may be abandoned on demotion or replaced by the leader's
// records, and must not inflate this replica's caught-up-ness in a
// failover comparison.
func (b *Broker) ReplOffsets() []ReplEntry {
	var out []ReplEntry
	for _, t := range b.topicList() {
		for i, p := range t.parts {
			out = append(out, ReplEntry{Topic: t.name, Partition: i, Next: p.watermark()})
		}
	}
	return out
}

// follow keeps partition part of t a copy of its leader's log for as long
// as the partition is open: a RemoteConsumer on the leader's fetch stream,
// opened at the partition's position, each pushed batch applied with
// appendAt. The position starts at the log head after a restart or a
// leader change, so appendAt re-verifies every record this replica cannot
// vouch for against the leader's, and truncates at the first that differs.
func (r *replicator) follow(t *Topic, part int) {
	defer r.loops.Done()
	p := t.parts[part]
	via := &replicaFetch{r: r, b: t.broker, leader: -1}
	c := (&RemoteTopic{via: via, timeout: r.cfg.Timeout, name: t.name, parts: len(t.parts)}).OpenConsumer(part, 0)
	for !p.isClosed() {
		if l := t.broker.leaderFor(t.name, part); l == r.cfg.Self {
			via.leader = l
			time.Sleep(followPause)
			continue
		} else if l != via.leader {
			via.leader = l
			p.seek(0)
		}
		c.SeekTo(p.watermark())
		recs, err := c.Poll(maxFetchBatch, maxFetchPark)
		// A batch from a leader the map has since replaced is not applied.
		if len(recs) > 0 && t.broker.leaderFor(t.name, part) == via.leader {
			first, last := recs[0].Offset, recs[len(recs)-1].Offset
			next, applied, aerr := p.appendAt(first, recs)
			t.broker.Appended.Add(int64(applied))
			if err = aerr; err == nil && next < first {
				// The leader trimmed past this log's end: a gap only a
				// snapshot could fill. Ask again, and never ack past it.
				err = fmt.Errorf("mq: %s/%d ends at %d, leader sent from %d", t.name, part, next, first)
			} else if err == nil {
				p.seek(last + 1)
			}
		}
		if err != nil {
			time.Sleep(followPause)
		}
	}
}

// replicaFetch is the partCaller under a follower loop's RemoteConsumer: it
// reaches the leader the loop follows over the replicator's peer clients,
// and marks every fetch it opens as a replica's.
type replicaFetch struct {
	r      *replicator
	b      *Broker
	leader int
}

// callPart heals like RemoteBroker's: a leader that forgot the topic has it
// re-created, and the call is issued once more.
func (f *replicaFetch) callPart(topic string, parts, _ int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	c := f.r.clients[f.leader]
	resp, err := c.Call(method, req, timeout)
	if isUnknownTopic(err) {
		if _, err := c.Call(methodOpenTopic, openTopicReq(topic, parts), timeout); err == nil {
			return c.Call(method, req, timeout)
		}
	}
	return resp, err
}

// streamPart opens a replica fetch: the consumer's request, then this
// replica's index and the map version and leader it believes in. A map
// that has moved the partition since the loop chose its leader refuses the
// open, so the loop re-aims, and re-verifies, before it fetches again.
func (f *replicaFetch) streamPart(topic string, part int, req []byte) (*rpc.Stream, error) {
	f.b.pmMu.RLock()
	version, leader := f.b.pm.Version, f.b.pm.Leader(topic, part, len(f.r.cfg.Peers))
	f.b.pmMu.RUnlock()
	if leader != f.leader {
		return nil, notLeaderError(topic, part, leader)
	}
	w := codec.NewWriter(len(req) + 24)
	w.Raw(req)
	w.Uvarint(uint64(f.r.cfg.Self))
	w.Varint(version)
	w.Uvarint(uint64(leader))
	return f.r.clients[leader].OpenStream(methodFetch, w.Bytes(), 1)
}

// serveReplica answers a follower's fetch of (t, part) from offset, its
// ack: it is sent the next batch from there, high watermark or not, and the
// stream ends — the next fetch carries the next ack. A fetch past the log
// end is served from the log end, so the follower re-verifies a tail this
// leader does not hold as the log grows back over it.
func (b *Broker) serveReplica(t *Topic, part int, offset int64, max int, r *codec.Reader, w *codec.Writer, push func([]byte) error) error {
	peer, version, leader := r.Uvarint(), r.Varint(), r.Uvarint()
	if err := r.Finish(); err != nil {
		return err
	}
	rp := b.replicatorRef()
	if rp == nil || peer >= uint64(len(rp.cfg.Peers)) || int(peer) == rp.cfg.Self || leader >= uint64(len(rp.cfg.Peers)) {
		return fmt.Errorf("mq: replica fetch from peer %d naming leader %d", peer, leader)
	}
	if !b.observeLeader(t.name, part, int(leader), version) {
		return notLeaderError(t.name, part, b.leaderFor(t.name, part))
	}
	if err := b.checkLeader(t.name, part); err != nil {
		return err
	}
	p := t.parts[part]
	recs, next, err := p.fetch(nil, p.ack(int(peer), offset), max, maxFetchPark, true)
	if err != nil || len(recs) == 0 {
		return err
	}
	encodeFetchBatch(w, next-int64(len(recs)), recs)
	return push(w.Bytes())
}

// awaitQuorum holds a replicated append until the high watermark passes
// end, leadership moves (ErrNotLeader), or cfg.Timeout passes
// (ErrQuorumUnavailable). A follower with no live ack for the partition is
// sent mq.open for its topic, once per wait: that starts a follower loop on
// a replica that missed the topic's creation or restarted without it.
func (r *replicator) awaitQuorum(t *Topic, part int, end int64) error {
	p := t.parts[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.raiseHWLocked(); p.hw >= end {
		return nil
	}
	now := time.Now()
	for i := range p.acks {
		if i != r.cfg.Self && now.Sub(p.acks[i].at) > ackStale {
			p.acks[i].at = now
			go r.open(i, t)
		}
	}
	expired, done := false, make(chan struct{})
	defer close(done) // stops the timer goroutine; one the timeout woke takes p.mu after us
	timeout := r.cfg.After(r.cfg.Timeout)
	go func() {
		select {
		case <-timeout:
			p.mu.Lock()
			expired = true
			p.cond.Broadcast()
			p.mu.Unlock()
		case <-done:
		}
	}()
	for p.hw < end {
		switch {
		case p.closed:
			return ErrClosed
		case expired:
			return fmt.Errorf("%w: timeout with %s/%d acked to %d, appended to %d", ErrQuorumUnavailable, t.name, part, p.hw, end)
		case t.broker.leaderFor(t.name, part) != r.cfg.Self:
			return notLeaderError(t.name, part, t.broker.leaderFor(t.name, part))
		}
		p.cond.Wait()
	}
	return nil
}

// open asks peer to create t, which starts its follower loops there.
func (r *replicator) open(peer int, t *Topic) {
	//lint:allow droppederror reason=best-effort nudge; a peer that stays silent is nudged again by a later quorum wait
	_, _ = r.clients[peer].Call(methodOpenTopic, openTopicReq(t.name, len(t.parts)), r.cfg.Timeout)
}

// lag reports the replication lag of one partition from the leader's seat:
// its log end minus the slowest follower's ack (0 when this broker does
// not lead the partition). This is what the
// mq.replication_lag{topic,partition} gauge exports.
func (r *replicator) lag(t *Topic, part int) (lag int64) {
	if t.broker.leaderFor(t.name, part) != r.cfg.Self {
		return 0
	}
	p := t.parts[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, a := range p.acks {
		if i != r.cfg.Self {
			lag = max(lag, p.next-a.next)
		}
	}
	return lag
}

// close tears down the peer connections and waits out the follower loops,
// whose partitions the broker has closed.
func (r *replicator) close() {
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
	r.loops.Wait()
}
