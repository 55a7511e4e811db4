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

// maxServerFetchWait caps how long one fetch RPC may park server-side.
// rpc.Server.Close waits for in-flight handlers, so an uncapped long-poll
// would hold broker shutdown hostage for the client's full wait; capping it
// bounds shutdown latency while RemoteConsumer.Poll re-issues fetches until
// the client's own wait is spent, preserving long-poll semantics.
const maxServerFetchWait = time.Second

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

// ServeBroker registers the broker's RPC surface on srv. Handlers that
// never park run inline on the connection's read loop; an append does
// unless the broker replicates, where it waits on a quorum.
func ServeBroker(b *Broker, srv *rpc.Server) {
	unreplicated := func() bool { return b.repl.Load() == nil }
	srv.HandleInline(methodOpenTopic, nil, func(_ rpc.Ctx, req []byte, _ *codec.Writer) error {
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
	srv.HandleInline(methodAppend, unreplicated, func(_ rpc.Ctx, req []byte, resp *codec.Writer) error {
		r := codec.NewReader(req)
		t, part, err := b.partReq(r)
		if err != nil {
			return err
		}
		key := r.Uvarint()
		val := r.Bytes32()
		if err := r.Err(); err != nil {
			return err
		}
		// The request buffer is the connection's; the broker keeps a copy.
		off, err := t.Append(part, key, append([]byte(nil), val...))
		resp.Varint(off)
		return err
	})
	srv.HandleInline(methodAppendBatch, unreplicated, func(_ rpc.Ctx, req []byte, resp *codec.Writer) error {
		r := codec.NewReader(req)
		t, part, err := b.partReq(r)
		if err != nil {
			return err
		}
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
	})
	srv.Handle(methodFetch, func(req []byte) ([]byte, error) {
		r := codec.NewReader(req)
		t, part, err := b.partReq(r)
		if err != nil {
			return nil, err
		}
		offset := r.Varint()
		max := r.Uvarint()
		waitMS := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// Consumers read from the leader only: a follower's log may hold
		// an unreplicated tail destined for truncation.
		if err := b.checkLeader(t.name, part); err != nil {
			return nil, err
		}
		wait := time.Duration(min(waitMS, 1000)) * time.Millisecond
		if wait > maxServerFetchWait {
			wait = maxServerFetchWait
		}
		recs, next, err := t.parts[part].fetch(offset, int(min(max, MaxAppendBatch)), wait)
		if err != nil {
			return nil, err
		}
		w := codec.NewWriter(64 * len(recs))
		w.Varint(next)
		w.Uvarint(uint64(len(recs)))
		for _, rec := range recs {
			w.Varint(rec.Offset)
			w.Uvarint(rec.Key)
			w.Varint(rec.Ts)
			w.Bytes32(rec.Value)
		}
		return w.Bytes(), nil
	})
	srv.HandleInline(methodMeta, nil, func(_ rpc.Ctx, req []byte, resp *codec.Writer) error {
		t, part, err := b.partReq(codec.NewReader(req))
		// Offsets from a non-leader could overstate the log end by its
		// unreplicated tail; make clients re-resolve instead.
		if err == nil {
			err = b.checkLeader(t.name, part)
		}
		if err != nil {
			return err
		}
		resp.Varint(t.NextOffset(part))
		resp.Varint(t.Depth(part))
		resp.Varint(t.CommittedOffset(part))
		return nil
	})
	srv.HandleInline(methodCommit, nil, func(_ rpc.Ctx, req []byte, _ *codec.Writer) error {
		r := codec.NewReader(req)
		t, part, err := b.partReq(r)
		offset := r.Varint()
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return err
		}
		return t.Commit(part, offset)
	})
}

// decodeBatch reads n records off an append-batch frame. The frame buffer
// is pooled, so the values are copied out — into one allocation the
// records share, not one per record; each value is capped at its own
// length so no append can reach its neighbour. The caller checks r for
// truncation.
//
//lint:hotpath
func decodeBatch(r *codec.Reader, n int) []BatchRecord {
	recs := make([]BatchRecord, n)
	total := 0
	for i := range recs {
		recs[i].Key = r.Uvarint()
		recs[i].Value = r.Bytes32() // still the frame's bytes
		total += len(recs[i].Value)
	}
	backing := make([]byte, total)
	off := 0
	for i := range recs {
		end := off + copy(backing[off:], recs[i].Value)
		recs[i].Value = backing[off:end:end]
		off = end
	}
	return recs
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
	w := codec.NewWriter(32)
	w.String(topic)
	w.Uvarint(uint64(parts))
	if _, rerr := rb.client.Call(methodOpenTopic, w.Bytes(), rb.timeout); rerr != nil {
		return nil, err
	}
	return rb.client.Call(method, req, timeout)
}

func isUnknownTopic(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "unknown topic")
}

// OpenTopic implements Bus.
func (rb *RemoteBroker) OpenTopic(name string, partitions int) (TopicHandle, error) {
	w := codec.NewWriter(32)
	w.String(name)
	w.Uvarint(uint64(partitions))
	if _, err := rb.client.Call(methodOpenTopic, w.Bytes(), rb.timeout); err != nil {
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

// OpenConsumer implements TopicHandle. The cursor lives client-side, so a
// broker failover mid-stream re-issues the fetch at the same offset against
// the new leader — no records are skipped or dropped.
func (t *RemoteTopic) OpenConsumer(partition int, from int64) Cursor {
	return &RemoteConsumer{topic: t, partition: partition, offset: from}
}

// RemoteConsumer is a Cursor over RPC with long-poll fetches.
type RemoteConsumer struct {
	topic     *RemoteTopic
	partition int
	offset    int64
}

// Poll implements Cursor. Waits longer than the broker's server-side cap
// are satisfied by re-issuing capped fetches until data arrives or the wait
// is spent, so a long poll never parks a broker handler past the cap (which
// would stall broker shutdown).
func (c *RemoteConsumer) Poll(max int, wait time.Duration) ([]Record, error) {
	deadline := time.Now().Add(wait)
	for {
		chunk := wait
		if chunk > maxServerFetchWait {
			if chunk = time.Until(deadline); chunk > maxServerFetchWait {
				chunk = maxServerFetchWait
			}
		}
		recs, err := c.pollOnce(max, chunk)
		if err != nil || len(recs) > 0 {
			return recs, err
		}
		if wait <= maxServerFetchWait || !time.Now().Before(deadline) {
			return nil, nil
		}
	}
}

func (c *RemoteConsumer) pollOnce(max int, wait time.Duration) ([]Record, error) {
	if wait < 0 {
		wait = 0
	}
	w := codec.NewWriter(40)
	w.String(c.topic.name)
	w.Uvarint(uint64(c.partition))
	w.Varint(c.offset)
	w.Uvarint(uint64(max))
	w.Uvarint(uint64(wait / time.Millisecond))
	resp, err := c.topic.call(c.partition, methodFetch, w.Bytes(), wait+c.topic.timeout)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(resp)
	next := r.Varint()
	n := r.Count(4) // a record is at least four one-byte fields
	if err := r.Err(); err != nil {
		return nil, err
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec := Record{Offset: r.Varint(), Key: r.Uvarint(), Ts: r.Varint()}
		val := r.Bytes32()
		v := make([]byte, len(val))
		copy(v, val)
		rec.Value = v
		recs = append(recs, rec)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	c.offset = next
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

// SeekTo implements Cursor.
func (c *RemoteConsumer) SeekTo(offset int64) { c.offset = offset }

// Lag implements Cursor (EndOffset - Committed).
func (c *RemoteConsumer) Lag() int64 {
	return c.topic.EndOffset(c.partition) - c.offset
}

var (
	_ Bus         = (*RemoteBroker)(nil)
	_ TopicHandle = (*RemoteTopic)(nil)
	_ Cursor      = (*RemoteConsumer)(nil)
)
