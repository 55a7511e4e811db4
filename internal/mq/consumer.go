package mq

import "time"

// Consumer reads one partition of one topic with a private offset cursor,
// matching how each Helios worker owns exactly one input partition (§4.1:
// updates and requests are evenly sliced, "each worker exclusively handles
// one partition").
type Consumer struct {
	topic     *Topic
	partition int
	offset    int64
}

// OpenConsumer implements TopicHandle: a cursor on a partition starting at
// from (0 for the earliest retained record).
func (t *Topic) OpenConsumer(partition int, from int64) Cursor {
	return &Consumer{topic: t, partition: partition, offset: from}
}

// Poll fetches up to max records, blocking up to wait when the partition is
// empty. It returns nil on timeout and ErrClosed after broker shutdown. The
// cursor advances past the returned records.
func (c *Consumer) Poll(max int, wait time.Duration) ([]Record, error) {
	recs, next, err := c.topic.parts[c.partition].fetch(nil, c.offset, max, wait, false)
	c.offset = next
	return recs, err
}

// Offset returns the cursor position in Kafka's committed-offset
// convention: the offset of the next record to be read, i.e. one past the
// last delivered record. A consumer that has delivered records [0, k)
// reports Offset() == k — NOT k-1; lag is then EndOffset - Offset with no
// off-by-one adjustment.
func (c *Consumer) Offset() int64 { return c.offset }

// Commit pushes the cursor position to the broker's per-partition commit
// record (see Topic.Commit).
func (c *Consumer) Commit() error {
	return c.topic.Commit(c.partition, c.offset)
}
