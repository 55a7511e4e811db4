package mq

import (
	"runtime"
	"testing"
	"time"

	"helios/internal/rpc"
)

// Regression: a blocking local Poll must unblock with ErrClosed promptly
// when the broker closes, not wait out its full long-poll deadline.
func TestLocalPollUnblocksOnBrokerClose(t *testing.T) {
	b := NewBroker(Options{})
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := topic.NewConsumer(0, 0)
	done := make(chan error, 1)
	go func() {
		_, err := c.Poll(1, 30*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	start := time.Now()
	b.Close()
	select {
	case err := <-done:
		if !IsFatal(err) {
			t.Fatalf("poll returned %v, want a fatal close error", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("poll took %v to unblock after close", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("poll still blocked 5s after broker close")
	}
}

// Regression: rpc.Server.Close waits for in-flight handlers, so a fetch
// stream parked on an idle partition for as long as its consumer polls (30s
// here) would hold broker shutdown hostage. A stream parks for maxFetchPark
// at most and then ends, so Close returns within that bound of a second.
func TestServerCloseNotStalledByIdleStream(t *testing.T) {
	b := NewBroker(Options{})
	srv := rpc.NewServer()
	ServeBroker(b, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := DialBroker(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	topic, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := topic.OpenConsumer(0, 0)
	pollDone := make(chan error, 1)
	go func() {
		_, err := c.Poll(1, 30*time.Second)
		pollDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the stream open and park

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("server close took %v with an idle stream open", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server close still blocked 10s after an idle stream opened")
	}
	rb.Close()
	b.Close()
	select {
	case <-pollDone:
	case <-time.After(5 * time.Second):
		t.Fatal("client poll never returned after full shutdown")
	}
}

// Regression: a blocking remote Poll must unblock promptly when its own
// client closes (worker shutdown), with a fatal error so the poll loop
// exits instead of spinning.
func TestRemotePollUnblocksOnClientClose(t *testing.T) {
	b, rb, done := startRemote(t)
	defer done()
	_ = b
	topic, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := topic.OpenConsumer(0, 0)
	pollDone := make(chan error, 1)
	go func() {
		_, err := c.Poll(1, 30*time.Second)
		pollDone <- err
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	rb.Close()
	select {
	case err := <-pollDone:
		if !IsFatal(err) {
			t.Fatalf("poll returned %v, want a fatal close error", err)
		}
		if waited := time.Since(start); waited > 3*time.Second {
			t.Fatalf("poll took %v to unblock after client close", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("poll still blocked 5s after client close")
	}
}

// The shutdown paths above must not strand goroutines: repeat a full
// bring-up / long-poll / tear-down cycle and check the goroutine count
// returns to baseline (same pattern as cluster's TestNoGoroutineLeaks).
func TestPollShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		b := NewBroker(Options{})
		srv := rpc.NewServer()
		ServeBroker(b, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := DialBroker(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		topic, err := rb.OpenTopic("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		local, _ := b.Topic("t")
		localDone := make(chan struct{})
		remoteDone := make(chan struct{})
		go func() {
			defer close(localDone)
			local.NewConsumer(0, 0).Poll(1, 30*time.Second)
		}()
		go func() {
			defer close(remoteDone)
			topic.OpenConsumer(0, 0).Poll(1, 30*time.Second)
		}()
		time.Sleep(50 * time.Millisecond)
		rb.Close()
		srv.Close()
		b.Close()
		for _, ch := range []chan struct{}{localDone, remoteDone} {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("poller still blocked after full shutdown")
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
