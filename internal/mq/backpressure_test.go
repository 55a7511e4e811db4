package mq

import (
	"fmt"
	"testing"
	"time"
)

func TestCommitTracksProgress(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := topic.CommittedOffset(0); got != -1 {
		t.Fatalf("fresh partition committed = %d, want -1", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := topic.Append(0, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c := topic.OpenConsumer(0, 0)
	if _, err := c.Poll(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := topic.CommittedOffset(0); got != 5 {
		t.Fatalf("committed = %d, want 5", got)
	}
	// Stale commits never move the offset backwards.
	if err := topic.Commit(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := topic.CommittedOffset(0); got != 5 {
		t.Fatalf("committed after stale commit = %d, want 5", got)
	}
	// Commits beyond the log end clamp to it.
	if err := topic.Commit(0, 100); err != nil {
		t.Fatal(err)
	}
	if got := topic.CommittedOffset(0); got != 5 {
		t.Fatalf("committed after overshoot = %d, want 5", got)
	}
}

func TestLagBoundBackpressure(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	b.SetLagBound("t", 3)
	c := topic.OpenConsumer(0, 0)
	if err := c.Commit(); err != nil { // committed = 0: lag now measurable
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := topic.Append(0, 1, []byte("x")); err != nil {
			t.Fatalf("append %d under bound failed: %v", i, err)
		}
	}
	_, err = topic.Append(0, 1, []byte("x"))
	if !IsBackpressure(err) {
		t.Fatalf("append past lag bound returned %v, want backpressure", err)
	}
	// Catching up and committing clears the condition.
	if _, err := c.Poll(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := topic.Append(0, 1, []byte("x")); err != nil {
		t.Fatalf("append after catch-up failed: %v", err)
	}
}

// A topic with a bound but no committed consumer is exempt: with no lag
// signal there is nothing to bound (only depth), and shedding there would
// deadlock bootstrap (producers first, consumers later).
func TestLagBoundExemptWithoutCommits(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	b.SetLagBound("t", 2) // set before creation: must stick to the new topic
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := topic.Append(0, 1, []byte("x")); err != nil {
			t.Fatalf("append %d with no consumer failed: %v", i, err)
		}
	}
}

func TestRemoteCommitAndBackpressure(t *testing.T) {
	b, rb, done := startRemote(t)
	defer done()
	topic, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := b.Topic("t")
	if got := local.CommittedOffset(0); got != -1 {
		t.Fatalf("broker-side committed = %d, want -1", got)
	}
	c := topic.OpenConsumer(0, 0)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := local.CommittedOffset(0); got != 0 {
		t.Fatalf("broker-side committed = %d, want 0", got)
	}
	b.SetLagBound("t", 2)
	for i := 0; i < 2; i++ {
		if _, err := topic.Append(0, 1, []byte("x")); err != nil {
			t.Fatalf("append %d under bound failed: %v", i, err)
		}
	}
	_, err = topic.Append(0, 1, []byte("x"))
	if !IsBackpressure(err) {
		t.Fatalf("remote append past bound returned %v, want backpressure", err)
	}
	// Poll + commit over RPC clears it.
	if _, err := c.Poll(10, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := local.CommittedOffset(0); got != 2 {
		t.Fatalf("broker-side committed after poll = %d, want 2", got)
	}
	if _, err := topic.Append(0, 1, []byte("x")); err != nil {
		t.Fatalf("append after catch-up failed: %v", err)
	}
}

// Lag bounds apply per partition: one lagging partition must not shed
// appends routed to a healthy one.
func TestLagBoundPerPartition(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	b.SetLagBound("t", 1)
	c0 := topic.OpenConsumer(0, 0)
	if err := c0.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := topic.Append(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := topic.Append(0, 1, []byte("x")); !IsBackpressure(err) {
		t.Fatalf("partition 0 append = %v, want backpressure", err)
	}
	// Partition 1 has no commits at all: exempt.
	for i := 0; i < 4; i++ {
		if _, err := topic.Append(1, 1, []byte("x")); err != nil {
			t.Fatal(fmt.Errorf("partition 1 append %d: %w", i, err))
		}
	}
}
