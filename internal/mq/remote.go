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

// Remote broker access: ServeBroker exposes a Broker over the RPC layer and
// RemoteBroker is the matching client, so sampling/serving workers in other
// processes share one durable queue service — the deployment of §4.1 where
// Kafka sits between all stages.

const (
	methodOpenTopic   = "mq.open"
	methodAppend      = "mq.append"
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
// unreplicated broker. Handlers that never park run inline on the
// connection's read loop: an append does unless the broker replicates, where
// it waits on a quorum.
func ServeBroker(b *Broker, srv *rpc.Server) {
	always := func() bool { return true }
	unreplicated := func() bool { return b.repl.Load() == nil }
	srv.HandleInline(methodOpenTopic, always, func(_ rpc.Ctx, req []byte, _ *codec.Writer) error {
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
	srv.HandleInline(methodAppend, unreplicated, b.onPart(func(t *Topic, part int, r *codec.Reader, resp *codec.Writer) error {
		key := r.Uvarint()
		val := r.Bytes32()
		if err := r.Err(); err != nil {
			return err
		}
		off, err := t.Append(part, key, val)
		resp.Varint(off)
		return err
	}))
	srv.HandleInline(methodAppendBatch, unreplicated, b.onPart(func(t *Topic, part int, r *codec.Reader, resp *codec.Writer) error {
		n := r.Count(2) // a record is at least a key byte and a length byte
		if err := r.Err(); err != nil {
			return err
		}
		if n > MaxAppendBatch {
			return fmt.Errorf("mq: append batch of %d exceeds broker bound %d", n, MaxAppendBatch)
		}
		recs := decodeBatch(r, n)
		if err := r.Finish(); err != nil {
			return err
		}
		off, err := t.AppendBatch(part, recs)
		resp.Varint(off)
		return err
	}))
	srv.HandleStream(methodFetch, func(_ rpc.Ctx, req []byte, push func([]byte) error) error {
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
		w := codec.GetWriter()
		defer codec.PutWriter(w)
		if r.Remaining() > 0 { // a follower's fetch: its replica marker follows
			return b.serveReplica(t, part, offset, max, r, w, push)
		}
		// The first fetch does not park: an empty batch tells a subscriber
		// at once that it is at the tail.
		var recs []Record
		for credit, park := fetchWindow, time.Duration(0); credit > 0; credit, park = credit-1, maxFetchPark {
			// Consumers read from the leader only — a follower's log may hold
			// an unreplicated tail destined for truncation — and leadership
			// can move under an open stream.
			if err := b.checkLeader(t.name, part); err != nil {
				return err
			}
			var next int64
			recs, next, err = t.parts[part].fetch(recs[:0], offset, max, park, false)
			if err != nil || (len(recs) == 0 && park > 0) {
				return err
			}
			w.Reset()
			encodeFetchBatch(w, next-int64(len(recs)), recs)
			if err := push(w.Bytes()); err != nil {
				return err
			}
			offset = next
		}
		return nil
	})
	srv.HandleInline(methodMeta, always, b.onPart(func(t *Topic, part int, _ *codec.Reader, resp *codec.Writer) error {
		// Offsets from a non-leader could overstate the log end by its
		// unreplicated tail; make clients re-resolve instead.
		if err := b.checkLeader(t.name, part); err != nil {
			return err
		}
		resp.Varint(t.NextOffset(part))
		resp.Varint(t.Depth(part))
		resp.Varint(t.CommittedOffset(part))
		return nil
	}))
	srv.HandleInline(methodCommit, always, b.onPart(func(t *Topic, part int, r *codec.Reader, _ *codec.Writer) error {
		offset := r.Varint()
		if err := r.Err(); err != nil {
			return err
		}
		return t.Commit(part, offset)
	}))
	srv.HandleInline(MethodLead, always, func(_ rpc.Ctx, req []byte, _ *codec.Writer) error {
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
		w.Varint(recs[i].Ts)
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
	recs := make([]Record, r.Count(3)) // key, timestamp and value length: a byte each at least
	for i := range recs {
		recs[i] = Record{Offset: first + int64(i), Key: r.Uvarint(), Ts: r.Varint(), Value: r.Bytes32()}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

// RemoteBroker is a Bus over an RPC connection to a broker server.
type RemoteBroker struct {
	client  *rpc.Client
	timeout time.Duration

	mu     sync.Mutex
	topics map[string]*RemoteTopic
}

// partCaller sends one partition-addressed request to the broker that
// should answer it. RemoteBroker (one broker, unknown-topic healing) and
// Cluster (leader resolution across replicas) each bring their own failure
// policy; RemoteTopic and RemoteConsumer are the one frame format above
// both.
type partCaller interface {
	callPart(topic string, parts, part int, method string, req []byte, timeout time.Duration) ([]byte, error)
	// streamPart opens a fetch stream there. It heals nothing: a cursor
	// whose stream failed issues a call, and callPart's policy does.
	streamPart(topic string, part int, req []byte) (*rpc.Stream, error)
}

// Conn is a Bus reached over the network. Client is its control
// connection, which telemetry reports share.
type Conn interface {
	Bus
	Client() *rpc.Client
}

// Dial connects to the queue tier at addrs: one address is a single broker
// (DialBroker); several are a replica set whose first entry hosts the
// failover controller (DialCluster).
func Dial(addrs []string, timeout time.Duration) (Conn, error) {
	if len(addrs) == 1 {
		rb, err := DialBroker(addrs[0], timeout)
		if err != nil {
			return nil, err
		}
		return rb, nil
	}
	c, err := DialCluster(addrs, "", timeout)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// DialBroker connects to a broker served by ServeBroker. The underlying
// RPC client is self-healing: it reconnects with backoff after a broker
// restart and retries failed calls a few times. Appends are therefore
// at-least-once — a retried append may land twice, which the §4.1 replay
// contract already tolerates (TopK inserts are idempotent, reservoir
// duplicates are harmless noise). The broker being down at dial time is
// not an error; the first call heals it.
func DialBroker(addr string, timeout time.Duration) (*RemoteBroker, error) {
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	c, err := rpc.DialOpts(addr, rpc.Options{Reconnect: true, RetryBudget: 4})
	if err != nil {
		return nil, err
	}
	return &RemoteBroker{client: c, timeout: timeout, topics: make(map[string]*RemoteTopic)}, nil
}

// Client exposes the underlying RPC client so co-located services (the
// telemetry reporter) can share the connection, and so callers can read
// its reconnect/retry counters.
func (rb *RemoteBroker) Client() *rpc.Client { return rb.client }

// callPart issues an RPC. If the broker reports an unknown topic — the
// signature of a broker that restarted with an empty topic table — a topic
// this client opened is re-created (a restarted broker with a -dir replays
// its retained log on CreateTopic) and the call is issued once more.
func (rb *RemoteBroker) callPart(topic string, parts, _ int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	resp, err := rb.client.Call(method, req, timeout)
	if err == nil || !isUnknownTopic(err) {
		return resp, err
	}
	rb.mu.Lock()
	_, opened := rb.topics[topic]
	rb.mu.Unlock()
	if !opened {
		return resp, err
	}
	if _, rerr := rb.client.Call(methodOpenTopic, openTopicReq(topic, parts), rb.timeout); rerr != nil {
		return nil, err
	}
	return rb.client.Call(method, req, timeout)
}

func (rb *RemoteBroker) streamPart(_ string, _ int, req []byte) (*rpc.Stream, error) {
	return rb.client.OpenStream(methodFetch, req, fetchWindow)
}

func isUnknownTopic(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "unknown topic")
}

// OpenTopic implements Bus.
func (rb *RemoteBroker) OpenTopic(name string, partitions int) (TopicHandle, error) {
	if _, err := rb.client.Call(methodOpenTopic, openTopicReq(name, partitions), rb.timeout); err != nil {
		return nil, err
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if t, ok := rb.topics[name]; ok {
		return t, nil
	}
	t := &RemoteTopic{via: rb, timeout: rb.timeout, name: name, parts: partitions}
	rb.topics[name] = t
	return t, nil
}

// Close implements Bus.
func (rb *RemoteBroker) Close() error { return rb.client.Close() }

// RemoteTopic is a TopicHandle over RPC, routed through a RemoteBroker or a
// Cluster.
type RemoteTopic struct {
	via     partCaller
	timeout time.Duration
	name    string
	parts   int
}

func (t *RemoteTopic) call(part int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	return t.via.callPart(t.name, t.parts, part, method, req, timeout)
}

// Name implements TopicHandle.
func (t *RemoteTopic) Name() string { return t.name }

// NumPartitions implements TopicHandle.
func (t *RemoteTopic) NumPartitions() int { return t.parts }

// Append implements TopicHandle.
func (t *RemoteTopic) Append(partition int, key uint64, value []byte) (int64, error) {
	w := codec.NewWriter(32 + len(value))
	w.String(t.name)
	w.Uvarint(uint64(partition))
	w.Uvarint(key)
	w.Bytes32(value)
	resp, err := t.call(partition, methodAppend, w.Bytes(), t.timeout)
	if err != nil {
		return 0, err
	}
	r := codec.NewReader(resp)
	off := r.Varint()
	return off, r.Err()
}

// AppendBatch implements TopicHandle: the whole batch rides one RPC frame
// and lands under one broker lock pass. It routes through the same
// unknown-topic healing (or leader resolution) as Append, so a broker
// restart mid-stream costs a re-create plus one retry, not a lost batch.
func (t *RemoteTopic) AppendBatch(partition int, recs []BatchRecord) (int64, error) {
	if len(recs) == 0 {
		return t.NextOffset(partition), nil
	}
	w := codec.GetWriter()
	w.String(t.name)
	w.Uvarint(uint64(partition))
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		w.Uvarint(recs[i].Key)
		w.Bytes32(recs[i].Value)
	}
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

// AppendByKey implements TopicHandle with the same routing hash as the
// local broker.
func (t *RemoteTopic) AppendByKey(key uint64, value []byte) (int64, error) {
	return t.Append(int(hashPartition(key, t.parts)), key, value)
}

// NextOffset implements TopicHandle.
func (t *RemoteTopic) NextOffset(partition int) int64 {
	next, _, _ := t.meta(partition)
	return next
}

// EndOffset implements TopicHandle (== NextOffset; see Topic.EndOffset).
func (t *RemoteTopic) EndOffset(partition int) int64 {
	return t.NextOffset(partition)
}

// Depth implements TopicHandle.
func (t *RemoteTopic) Depth(partition int) int64 {
	_, depth, _ := t.meta(partition)
	return depth
}

// CommittedOffset implements TopicHandle (-1 while no consumer committed,
// and also -1 when no broker is reachable — an unknown lag must not read
// as zero lag).
func (t *RemoteTopic) CommittedOffset(partition int) int64 {
	_, _, committed := t.meta(partition)
	return committed
}

func (t *RemoteTopic) meta(partition int) (next, depth, committed int64) {
	w := codec.NewWriter(32)
	w.String(t.name)
	w.Uvarint(uint64(partition))
	resp, err := t.call(partition, methodMeta, w.Bytes(), t.timeout)
	if err != nil {
		return 0, 0, -1
	}
	r := codec.NewReader(resp)
	return r.Varint(), r.Varint(), r.Varint()
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
// the stream. That happens once per Poll — a restart or a failover between
// two polls costs the caller nothing, one that persists reaches the caller's
// own retry loop.
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
			c.topic.meta(c.partition)
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

// Committed implements Cursor (see Consumer.Committed).
func (c *RemoteConsumer) Committed() int64 { return c.offset }

// Commit implements Cursor: pushes the cursor position to the broker.
func (c *RemoteConsumer) Commit() error {
	w := codec.NewWriter(40)
	w.String(c.topic.name)
	w.Uvarint(uint64(c.partition))
	w.Varint(c.offset)
	_, err := c.topic.call(c.partition, methodCommit, w.Bytes(), c.topic.timeout)
	return err
}

// SeekTo implements Cursor. The open stream feeds the old position: it is
// abandoned, and ends on its own.
func (c *RemoteConsumer) SeekTo(offset int64) {
	c.offset, c.stream, c.rest = offset, nil, nil
}

// Lag implements Cursor (EndOffset - Committed).
func (c *RemoteConsumer) Lag() int64 {
	return c.topic.EndOffset(c.partition) - c.offset
}

var (
	_ Bus         = (*RemoteBroker)(nil)
	_ TopicHandle = (*RemoteTopic)(nil)
	_ Cursor      = (*RemoteConsumer)(nil)
)
