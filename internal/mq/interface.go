package mq

import (
	"errors"
	"time"

	"helios/internal/rpc"
)

// Bus abstracts the broker so workers run identically against the
// in-process Broker (tests, benches, single-machine deployments) and the
// RemoteBroker RPC client (multi-process deployments, see remote.go).
type Bus interface {
	// OpenTopic creates or opens a topic with the given partition count.
	OpenTopic(name string, partitions int) (TopicHandle, error)
	// Close releases the connection (remote) or shuts the broker down
	// (local).
	Close() error
}

// TopicHandle is the per-topic surface workers program against.
type TopicHandle interface {
	Name() string
	NumPartitions() int
	Append(partition int, key uint64, value []byte) (int64, error)
	// AppendBatch appends recs to one partition as a single broker
	// operation — one lock pass locally, one RPC frame remotely — and
	// returns the offset of the first record; the batch lands contiguously
	// in slice order. Like Append, the broker copies every Value, so the
	// caller may reuse them. An empty batch is a no-op returning NextOffset.
	AppendBatch(partition int, recs []BatchRecord) (int64, error)
	AppendByKey(key uint64, value []byte) (int64, error)
	OpenConsumer(partition int, from int64) Cursor
	// NextOffset reports the offset the next append will get; Depth the
	// retained records of the partition.
	NextOffset(partition int) int64
	Depth(partition int) int64
	// EndOffset reports the log-end offset (== NextOffset, Kafka's LEO);
	// consumer lag is EndOffset - Cursor.Committed.
	EndOffset(partition int) int64
	// CommittedOffset reports the highest offset any consumer has pushed
	// back to the broker via Cursor.Commit for the partition, or -1 while
	// none has. This is the broker-side lag signal producers use for
	// backpressure without ever meeting the consumers.
	CommittedOffset(partition int) int64
}

// Cursor is an offset-tracked consumer of one partition.
type Cursor interface {
	Poll(max int, wait time.Duration) ([]Record, error)
	Offset() int64
	// Committed reports the offset of the next record to read (one past
	// the last delivered record) — Kafka's committed-offset convention.
	Committed() int64
	// Commit pushes the cursor's position back to the broker so
	// TopicHandle.CommittedOffset (and broker-side lag) reflect this
	// consumer's progress. Best-effort: consumers commit periodically, so
	// a failed commit only overstates lag until the next one lands.
	Commit() error
	SeekTo(offset int64)
	Lag() int64
}

// IsFatal reports whether a Bus error is terminal for a consumer loop:
// the local broker (or the worker's own client) was closed, i.e. this
// process is shutting down. Anything else — a dropped connection, a
// broker mid-restart, an injected fault — is transient: the reconnecting
// transport heals it, so poll loops should back off briefly and keep
// polling instead of dying.
func IsFatal(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, rpc.ErrClosed)
}

// Interface adapters for the concrete broker.

// OpenTopic implements Bus.
func (b *Broker) OpenTopic(name string, partitions int) (TopicHandle, error) {
	return b.CreateTopic(name, partitions)
}

// OpenConsumer implements TopicHandle.
func (t *Topic) OpenConsumer(partition int, from int64) Cursor {
	return t.NewConsumer(partition, from)
}

var (
	_ Bus         = (*Broker)(nil)
	_ TopicHandle = (*Topic)(nil)
	_ Cursor      = (*Consumer)(nil)
)
