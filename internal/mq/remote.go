package mq

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"helios/internal/actor"
	"helios/internal/codec"
	"helios/internal/rpc"
)

// Remote broker access: ServeBroker exposes a Broker over the RPC layer and
// RemoteBroker is the matching client, for a lone broker and a replica set
// alike, so sampling/serving workers in other processes share one durable
// queue service — the deployment of §4.1 where Kafka sits between all
// stages.

const (
	methodOpenTopic   = "mq.open"
	methodAppendBatch = "mq.append_batch"
	methodFetch       = "mq.fetch"
	methodMeta        = "mq.meta"
	methodCommit      = "mq.commit"
)

// A fetch is a server stream: one request subscribes a cursor at an offset
// and the broker pushes each batch as it becomes visible (DESIGN.md, "Hot
// path & batching"). maxFetchBatch caps a batch's records, whatever a poll
// asks for, and fetchWindow the batches pushed per request, so a client's
// read loop can hold everything a broker sends unasked and never waits on a
// slow consumer; a partition idle for maxFetchPark ends the stream, which
// bounds what an abandoned cursor or a closing server waits on a parked
// handler. The cursor's next Poll re-opens an ended stream.
const (
	maxFetchBatch = 512
	fetchWindow   = 64
	maxFetchPark  = 250 * time.Millisecond
)

// maxTopicPartitions bounds the partition count a peer may ask a broker to
// create: a sanity bound on a number off the wire, far above any topology.
const maxTopicPartitions = 1 << 16

// partReq decodes the (topic, partition) every partition-addressed request
// starts with and resolves them on this broker.
func (b *Broker) partReq(r *codec.Reader) (*Topic, int, error) {
	name := r.Bytes32()
	part := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	b.mu.RLock()
	t, ok := b.topics[string(name)]
	b.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("mq: unknown topic %q", name)
	}
	if part >= uint64(len(t.parts)) {
		return nil, 0, fmt.Errorf("mq: partition %d out of range for topic %q", part, name)
	}
	return t, int(part), nil
}

// onPart makes a buffer handler of h, which gets the partition the request
// addresses and the reader behind the address.
func (b *Broker) onPart(h func(t *Topic, part int, r *codec.Reader, resp *codec.Writer) error) rpc.BufHandler {
	return func(_ rpc.Ctx, req []byte, resp *codec.Writer) error {
		r := codec.NewReader(req)
		t, part, err := b.partReq(r)
		if err != nil {
			return err
		}
		return h(t, part, r, resp)
	}
}

// ServeBroker registers the broker's RPC surface on srv, replication's
// included: followers fetch like consumers, and mq.lead is a no-op on an
// unreplicated broker. Every handler runs on the connection's read loop,
// and parks only what waits: a fetch's push loop, and a replicated
// append's quorum.
func ServeBroker(b *Broker, srv *rpc.Server) {
	srv.HandleBuf(methodOpenTopic, func(_ rpc.Ctx, req []byte, _ *codec.Writer) error {
		r := codec.NewReader(req)
		name := r.String()
		parts := r.Uvarint()
		if err := r.Err(); err != nil {
			return err
		}
		if parts > maxTopicPartitions {
			return fmt.Errorf("mq: topic %q asks for %d partitions, bound %d", name, parts, maxTopicPartitions)
		}
		_, err := b.CreateTopic(name, int(parts))
		return err
	})
	srv.HandleBuf(methodAppendBatch, b.onPart(func(t *Topic, part int, r *codec.Reader, resp *codec.Writer) error {
		recs, err := decodeAppendBatch(r)
		if err != nil {
			return err
		}
		// The records are copied into the log here, so only the quorum
		// wait, if any, parks.
		off, quorum, err := t.land(part, recs)
		if err != nil || quorum == nil {
			resp.Varint(off)
			return err
		}
		return rpc.Park(func() error {
			if err := quorum(); err != nil {
				return err
			}
			resp.Varint(off)
			return nil
		})
	}))
	srv.HandleBuf(methodFetch, func(ctx rpc.Ctx, req []byte, _ *codec.Writer) error {
		r := codec.NewReader(req)
		t, part, err := b.partReq(r)
		if err != nil {
			return err
		}
		offset := r.Varint()
		max := int(min(r.Uvarint(), maxFetchBatch))
		if err := r.Err(); err != nil {
			return err
		}
		if r.Remaining() > 0 { // a follower's fetch: its replica marker follows
			return b.serveReplica(ctx, t, part, offset, max, r)
		}
		return rpc.Park(func() error {
			w := codec.GetWriter()
			defer codec.PutWriter(w)
			// The first fetch does not park: an empty batch tells a
			// subscriber at once that it is at the tail.
			var recs []Record
			for credit, park := fetchWindow, time.Duration(0); credit > 0; credit, park = credit-1, maxFetchPark {
				// Consumers read from the leader only — a follower's log may
				// hold an unreplicated tail destined for truncation — and
				// leadership can move under an open stream.
				if err := b.checkLeader(t.name, part); err != nil {
					return err
				}
				var next int64
				var err error
				recs, next, err = t.parts[part].fetch(recs[:0], offset, max, park, false)
				if err != nil || (len(recs) == 0 && park > 0) {
					return err
				}
				w.Reset()
				encodeFetchBatch(w, next-int64(len(recs)), recs)
				if err := ctx.Push(w.Bytes()); err != nil {
					return err
				}
				offset = next
			}
			return nil
		})
	})
	srv.HandleBuf(methodMeta, b.onPart(func(t *Topic, part int, _ *codec.Reader, resp *codec.Writer) error {
		// Offsets from a non-leader could overstate the log end by its
		// unreplicated tail; make clients re-resolve instead.
		if err := b.checkLeader(t.name, part); err != nil {
			return err
		}
		resp.Varint(t.EndOffset(part))
		return nil
	}))
	srv.HandleBuf(methodCommit, b.onPart(func(t *Topic, part int, r *codec.Reader, _ *codec.Writer) error {
		offset := r.Varint()
		if err := r.Err(); err != nil {
			return err
		}
		return t.Commit(part, offset)
	}))
	srv.HandleBuf(MethodLead, func(_ rpc.Ctx, req []byte, _ *codec.Writer) error {
		pm, err := DecodePartMap(req)
		if err != nil {
			return err
		}
		b.ApplyPartMap(pm)
		return nil
	})
}

// openTopicReq is the mq.open request for a topic of parts partitions.
func openTopicReq(name string, parts int) []byte {
	w := codec.NewWriter(32)
	w.String(name)
	w.Uvarint(uint64(parts))
	return w.Bytes()
}

// encodeAppendBatch writes the mq.append_batch frame that appends recs to
// one partition of topic.
func encodeAppendBatch(w *codec.Writer, topic string, partition int, recs []BatchRecord) {
	w.String(topic)
	w.Uvarint(uint64(partition))
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		w.Uvarint(recs[i].Key)
		w.Bytes32(recs[i].Value)
	}
}

// decodeAppendBatch reads the records of an mq.append_batch frame, past
// the address partReq took: a count the frame and MaxAppendBatch bound,
// the records, and nothing after them.
func decodeAppendBatch(r *codec.Reader) ([]BatchRecord, error) {
	n := r.Count(2) // a record is at least a key byte and a length byte
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > MaxAppendBatch {
		return nil, fmt.Errorf("mq: append batch of %d exceeds broker bound %d", n, MaxAppendBatch)
	}
	recs := decodeBatch(r, n)
	return recs, r.Finish()
}

// decodeBatch reads n records off an append-batch frame. The values alias
// the frame: AppendBatch copies them into the log before the frame buffer
// is reused. The caller checks r for truncation.
//
//lint:hotpath
func decodeBatch(r *codec.Reader, n int) []BatchRecord {
	recs := make([]BatchRecord, n)
	for i := range recs {
		recs[i].Key = r.Uvarint()
		recs[i].Value = r.Bytes32()
	}
	return recs
}

// encodeFetchBatch writes one pushed batch: recs are contiguous from first,
// so the one offset stands for all of them.
//
//lint:hotpath
func encodeFetchBatch(w *codec.Writer, first int64, recs []Record) {
	w.Varint(first)
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		w.Uvarint(recs[i].Key)
		w.Bytes32(recs[i].Value)
	}
}

// decodeFetchBatch reads one pushed batch. The payload is the batch's own
// allocation, so the values alias it, each capped at its own length: a batch
// costs the record slice and nothing per record.
//
//lint:hotpath
func decodeFetchBatch(payload []byte) ([]Record, error) {
	var r codec.Reader
	r.Reset(payload)
	first := r.Varint()
	recs := make([]Record, r.Count(2)) // key and value length: a byte each at least
	for i := range recs {
		recs[i] = Record{Offset: first + int64(i), Key: r.Uvarint(), Value: r.Bytes32()}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

// RemoteBroker is the Bus over a broker set of R ≥ 1 peers: one broker is a
// set of one. Every operation routes to the current leader of its
// partition; on a leadership rejection or a transport failure the client
// refreshes the controller's versioned partition map and retries against
// the new leader, so in-flight work rides out a failover or a restart
// instead of being dropped.
type RemoteBroker struct {
	clients []*rpc.Client // one self-healing connection per peer; peer 0 hosts the controller
	timeout time.Duration
	closed  chan struct{} // closed by Close: ends callPart's pause
	once    sync.Once

	mu          sync.Mutex
	pm          PartMap
	lastRefresh time.Time
	topics      map[string]*RemoteTopic
}

// callPart's resolution loop: at most resolveAttempts tries resolveSleep
// apart, and map fetches at most one per refreshEvery, so a herd of failing
// calls does not hammer the controller. Exhausting it hands the last error
// to the caller's own retry loop (a worker's poll loop, the frontend's
// shed-and-retry).
const (
	resolveAttempts = 6
	resolveSleep    = 100 * time.Millisecond
	refreshEvery    = 50 * time.Millisecond
)

// partCaller sends one partition-addressed request to the broker that
// should answer it. RemoteBroker (leader resolution across the set) and
// the follower loop's replicaFetch (the one leader it follows) each bring
// their own failure policy; RemoteTopic and RemoteConsumer are the one
// frame format above both.
type partCaller interface {
	callPart(topic string, parts, part int, method string, req []byte, timeout time.Duration) ([]byte, error)
	// streamPart opens a fetch stream there. It heals nothing: a cursor
	// whose stream failed issues a call, and callPart's policy does.
	streamPart(topic string, part int, req []byte) (*rpc.Stream, error)
}

// Dial connects to the broker set at addrs, whose first entry hosts the
// failover controller. Each peer's client is self-healing, so a peer being
// down at dial time is not an error: the first call heals it. Appends are
// at-least-once — a retried append may land twice, and nothing downstream
// absorbs the copy: a duplicated update offers its edge twice and a
// duplicated +1 leaves a subscription that never tears down, until the
// broker learns to drop a producer's retries.
func Dial(addrs []string, timeout time.Duration) *RemoteBroker {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	rb := &RemoteBroker{timeout: timeout, closed: make(chan struct{}), topics: make(map[string]*RemoteTopic)}
	for _, addr := range addrs {
		// The resolution loop above is the real retry policy: one rpc
		// retry, and a redial backoff that never outgrows the loop's own
		// pace. A backoff left to grow to rpc's 2 s would stretch a call to
		// a dead broker from about a second to the caller's whole budget.
		rb.clients = append(rb.clients, rpc.DialOpts(addr, rpc.Options{RetryBudget: 1, BackoffMax: resolveSleep}))
	}
	return rb
}

// DialBroker connects to a lone broker served by ServeBroker: a set of one.
// The error is always nil.
func DialBroker(addr string, timeout time.Duration) (*RemoteBroker, error) {
	return Dial([]string{addr}, timeout), nil
}

// Client exposes peer 0's connection, the controller's, so co-located
// services (the telemetry reporter) share it, and so callers can read its
// reconnect/retry counters.
func (rb *RemoteBroker) Client() *rpc.Client { return rb.clients[0] }

// OpenTopic implements Bus: the topic is created on every reachable peer
// (a leader's quorum wait opens it on a follower that lacks it, so one
// reachable peer is enough to proceed). Reopening a cached topic with a
// different partition count is an error, mirroring broker-side
// CreateTopic: a handle whose partition count disagrees with the broker
// layout would silently misroute.
func (rb *RemoteBroker) OpenTopic(name string, partitions int) (TopicHandle, error) {
	rb.mu.Lock()
	cached, ok := rb.topics[name]
	rb.mu.Unlock()
	if ok {
		return cached.reopen(partitions)
	}
	req := openTopicReq(name, partitions)
	created := 0
	var lastErr error
	// rb.timeout budgets the whole sweep: a dead peer must not multiply
	// the worst case by the peer count.
	deadline := time.Now().Add(rb.timeout)
	for _, cl := range rb.clients {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break // not on the first peer: a sweep that gets here has an error
		}
		if _, err := cl.Call(methodOpenTopic, req, remaining); err != nil {
			lastErr = err
		} else {
			created++
		}
	}
	if created == 0 {
		return nil, fmt.Errorf("mq: open topic %q on no broker: %w", name, lastErr)
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if t, ok := rb.topics[name]; ok { // a concurrent open won the insert race
		return t.reopen(partitions)
	}
	t := &RemoteTopic{via: rb, timeout: rb.timeout, name: name, parts: partitions}
	rb.topics[name] = t
	return t, nil
}

// Close implements Bus.
func (rb *RemoteBroker) Close() error {
	rb.once.Do(func() { close(rb.closed) })
	for _, cl := range rb.clients {
		cl.Close() // never fails
	}
	return nil
}

// leader resolves the peer leading (topic, partition) under the cached map.
func (rb *RemoteBroker) leader(topic string, partition int) int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.pm.Leader(topic, partition, len(rb.clients))
}

// refreshMap fetches the controller's partition map, rate-limited so
// concurrent failing calls collapse into one fetch. Best-effort: an
// unreachable controller, or a map naming a leader outside the set, leaves
// the cached map in place (the static partition % R default still routes
// most traffic correctly).
func (rb *RemoteBroker) refreshMap() {
	rb.mu.Lock()
	if time.Since(rb.lastRefresh) < refreshEvery {
		rb.mu.Unlock()
		return
	}
	rb.lastRefresh = time.Now()
	rb.mu.Unlock()
	pm, err := FetchPartMap(rb.clients[0], rb.timeout)
	if err != nil || !pm.valid(len(rb.clients)) {
		return
	}
	rb.mu.Lock()
	if pm.Version >= rb.pm.Version {
		rb.pm = pm
	}
	rb.mu.Unlock()
}

// resolvable classifies an error as worth a map-refresh-and-retry: a
// leadership rejection, a quorum timeout (the leader may be mid-demotion),
// or a transport failure (the leader may be dead or restarting). Handler
// errors like backpressure, and this client's own shutdown, propagate.
func resolvable(err error) bool {
	var re *rpc.RemoteError
	return IsNotLeader(err) || IsQuorumUnavailable(err) ||
		!errors.As(err, &re) && !errors.Is(err, rpc.ErrClosed) && !errors.Is(err, rpc.ErrDeadlineExceeded)
}

// callPart issues method against the current leader of (topic, part),
// re-resolving leadership on failure. An unknown-topic answer — the
// signature of a broker that restarted with an empty topic table — re-creates
// the topic on that peer (a broker with a -dir replays its retained log on
// CreateTopic) and the call is issued once more. timeout is a total budget
// across attempts, like rpc.CallTraced: each retry gets only what remains,
// and the pause between tries never outlasts it, so a dead leader cannot
// multiply the caller's wait by the attempt count. Close ends the pause.
func (rb *RemoteBroker) callPart(topic string, parts, part int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	lastErr := rpc.ErrDeadlineExceeded
	for attempt := 0; attempt < resolveAttempts; attempt++ {
		if attempt > 0 && len(rb.clients) > 1 { // a set of one has nothing to resolve
			rb.refreshMap()
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		peer := rb.clients[rb.leader(topic, part)]
		resp, err := peer.Call(method, req, remaining)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if isUnknownTopic(err) {
			//lint:allow droppederror reason=best-effort heal; the retried call below surfaces the real failure
			_, _ = peer.Call(methodOpenTopic, openTopicReq(topic, parts), remaining)
			continue
		}
		if !resolvable(err) {
			return nil, err
		}
		if attempt < resolveAttempts-1 {
			actor.Sleep(rb.closed, min(resolveSleep, time.Until(deadline)))
		}
	}
	return nil, lastErr
}

// streamPart opens a fetch stream on the current leader of (topic, part).
func (rb *RemoteBroker) streamPart(topic string, part int, req []byte) (*rpc.Stream, error) {
	return rb.clients[rb.leader(topic, part)].OpenStream(methodFetch, req, fetchWindow)
}

func isUnknownTopic(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "unknown topic")
}

// RemoteTopic is a TopicHandle over RPC, routed through a RemoteBroker or,
// under a follower loop, a replicaFetch.
type RemoteTopic struct {
	via     partCaller
	timeout time.Duration
	name    string
	parts   int
}

// reopen hands back a cached handle, refusing a partition count that
// disagrees with it.
func (t *RemoteTopic) reopen(parts int) (TopicHandle, error) {
	if t.parts != parts {
		return nil, fmt.Errorf("mq: topic %q open with %d partitions, requested %d", t.name, t.parts, parts)
	}
	return t, nil
}

func (t *RemoteTopic) call(part int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	return t.via.callPart(t.name, t.parts, part, method, req, timeout)
}

// Name implements TopicHandle.
func (t *RemoteTopic) Name() string { return t.name }

// NumPartitions implements TopicHandle.
func (t *RemoteTopic) NumPartitions() int { return t.parts }

// Append implements TopicHandle: a batch of one.
func (t *RemoteTopic) Append(partition int, key uint64, value []byte) (int64, error) {
	return t.AppendBatch(partition, []BatchRecord{{Key: key, Value: value}})
}

// AppendBatch implements TopicHandle: the whole batch rides one RPC frame
// and lands under one broker lock pass. It routes through callPart's
// healing, so a broker restart or a failover mid-stream costs a re-create
// or a re-resolution plus a retry, not a lost batch.
func (t *RemoteTopic) AppendBatch(partition int, recs []BatchRecord) (int64, error) {
	if len(recs) == 0 {
		return t.EndOffset(partition), nil
	}
	w := codec.GetWriter()
	encodeAppendBatch(w, t.name, partition, recs)
	resp, err := t.call(partition, methodAppendBatch, w.Bytes(), t.timeout)
	codec.PutWriter(w)
	if err != nil {
		return 0, err
	}
	r := codec.NewReader(resp)
	off := r.Varint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return off, r.Finish()
}

// EndOffset implements TopicHandle with one mq.meta call (0 when no
// broker is reachable).
func (t *RemoteTopic) EndOffset(partition int) int64 { return t.endOffset(partition, t.timeout) }

// endOffset is EndOffset within timeout.
func (t *RemoteTopic) endOffset(partition int, timeout time.Duration) int64 {
	w := codec.NewWriter(32)
	w.String(t.name)
	w.Uvarint(uint64(partition))
	resp, err := t.call(partition, methodMeta, w.Bytes(), timeout)
	if err != nil {
		return 0
	}
	return codec.NewReader(resp).Varint()
}

// OpenConsumer implements TopicHandle. The cursor lives client-side: the
// broker keeps no per-consumer state to lose in a failover or a restart, and
// whatever ends a fetch stream, the next one starts at the offset after the
// last record Poll handed out — nothing skipped, nothing dropped.
func (t *RemoteTopic) OpenConsumer(partition int, from int64) Cursor {
	return &RemoteConsumer{topic: t, partition: partition, offset: from}
}

// RemoteConsumer is a Cursor fed by a fetch stream.
type RemoteConsumer struct {
	topic     *RemoteTopic
	partition int
	offset    int64

	stream *rpc.Stream // nil before the first Poll and after a stream ended
	rest   []Record    // what a Poll smaller than the pushed batch left behind
}

// Poll implements Cursor. A stream that ended is re-opened here, and what
// is left of wait after its first frame is spent on the next: an idle Poll
// returns on time however many streams end under it. A stream that ended in
// an error, or would not open, is first healed, by a call: callPart's policy
// re-creates a topic a restarted broker forgot, re-resolves a moved leader
// and re-dials a lost connection for a call, and what it mends it mends for
// the stream. That happens once per Poll, within wait — a restart or a
// failover between two polls costs the caller nothing, one that persists
// reaches the caller's own retry loop, and a dead leader holds a Poll about
// wait, not the topic's whole timeout.
func (c *RemoteConsumer) Poll(limit int, wait time.Duration) ([]Record, error) {
	deadline := time.Now().Add(wait)
	for healed := false; len(c.rest) == 0; {
		patience := time.Until(deadline)
		var payload []byte
		var err error
		if c.stream == nil {
			w := codec.NewWriter(40)
			w.String(c.topic.name)
			w.Uvarint(uint64(c.partition))
			w.Varint(c.offset)
			w.Uvarint(uint64(max(limit, 1)))
			c.stream, err = c.topic.via.streamPart(c.topic.name, c.partition, w.Bytes())
			// A new stream's first frame — a batch, an empty one from a
			// partition with nothing to send, or an error — is one round trip
			// away; waiting for it keeps the poll after an open, a seek or a
			// failure as current as the call it replaced.
			patience = max(patience, c.topic.timeout)
		}
		if err == nil {
			if payload, err = c.stream.Recv(patience); err == nil && payload == nil {
				return nil, nil
			}
		}
		if err == nil {
			c.rest, err = decodeFetchBatch(payload)
		}
		if err == rpc.ErrEndOfStream { // window spent, or the partition sat idle
			c.stream = nil
		} else if err != nil {
			if c.stream = nil; healed {
				return nil, err
			}
			healed = true
			c.topic.endOffset(c.partition, wait)
		}
	}
	n := max(min(limit, len(c.rest)), 1)
	recs := c.rest[:n:n]
	if c.rest = c.rest[n:]; len(c.rest) == 0 {
		c.rest = nil // an idle cursor pins no batch
	}
	c.offset = recs[n-1].Offset + 1
	return recs, nil
}

// Offset implements Cursor.
func (c *RemoteConsumer) Offset() int64 { return c.offset }

// seek moves the cursor, abandoning the open stream: it ends on its own.
func (c *RemoteConsumer) seek(offset int64) {
	c.offset, c.stream, c.rest = offset, nil, nil
}

// Commit implements Cursor: pushes the cursor position to the broker.
func (c *RemoteConsumer) Commit() error {
	w := codec.NewWriter(40)
	w.String(c.topic.name)
	w.Uvarint(uint64(c.partition))
	w.Varint(c.offset)
	_, err := c.topic.call(c.partition, methodCommit, w.Bytes(), c.topic.timeout)
	return err
}

var (
	_ Bus         = (*RemoteBroker)(nil)
	_ TopicHandle = (*RemoteTopic)(nil)
	_ Cursor      = (*RemoteConsumer)(nil)
)
