package mq

import (
	"errors"
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
	c := topic.OpenConsumer(0, 0)
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
			local.OpenConsumer(0, 0).Poll(1, 30*time.Second)
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
	settlesTo(t, before)
}

// settlesTo waits for the goroutine count to return to before, give or take
// two, and fails the test if it does not within five seconds.
func settlesTo(t *testing.T, before int) {
	t.Helper()
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

// A lone broker is a set of one, so a call to a broker that has gone sits in
// callPart's resolution loop. Closing the client must end it within one
// resolveSleep, with rpc.ErrClosed, whatever is left of the call's budget,
// and leave no goroutine behind: every SUT role and every producer of the
// load generator closes this client on its way out.
func TestCloseEndsResolutionLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	b := NewBroker(Options{})
	srv, addr := serveOn(t, b, "")
	rb := Dial([]string{addr}, 30*time.Second)
	topic, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	b.Close()

	done := make(chan error, 1)
	go func() {
		_, err := topic.Append(0, 1, []byte("x"))
		done <- err
	}()
	// A failed dial puts the call in the loop: in its one rpc retry or in
	// the sleep after it.
	for deadline := time.Now().Add(5 * time.Second); rb.Client().DialFailures.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the call never dialed the gone broker")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	rb.Close()
	select {
	case err := <-done:
		if !errors.Is(err, rpc.ErrClosed) {
			t.Fatalf("append returned %v, want rpc.ErrClosed", err)
		}
		if waited := time.Since(start); waited > resolveSleep+250*time.Millisecond {
			t.Fatalf("append took %v to return after close", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append still in the resolution loop 5s after close")
	}
	settlesTo(t, before)
}

// goneBroker serves a broker, opens topic "t" through a client with the
// given budget, then takes the broker away: every later call or stream to
// it fails to dial.
func goneBroker(t *testing.T, timeout time.Duration) TopicHandle {
	t.Helper()
	b := NewBroker(Options{})
	srv, addr := serveOn(t, b, "")
	rb := Dial([]string{addr}, timeout)
	t.Cleanup(func() { rb.Close() })
	topic, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	b.Close()
	return topic
}

// A call to a broker that has gone spends its budget and no more: the pause
// between resolution attempts is cut to what is left of it (it was a full
// resolveSleep, so a 20 ms call took 100 ms or more), and a redial backoff
// longer than what is left fails the call instead of sleeping past it.
func TestCallStaysInsideItsBudget(t *testing.T) {
	const budget, bound = 20 * time.Millisecond, 80 * time.Millisecond
	topic := goneBroker(t, budget)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := topic.Append(0, 1, []byte("x")); err == nil {
			t.Fatal("append to a gone broker succeeded")
		}
		if took := time.Since(start); took > bound {
			t.Fatalf("call %d with a %v budget took %v, want <= %v", i, budget, took, bound)
		}
	}
}

// A Poll whose leader is gone returns in about its own wait: the heal it
// attempts is bounded by that wait, not by the topic's whole timeout (30 s
// here), so the worker loop around it sees its stop signal between polls.
// Before, each such Poll took 0.5 s or more in callPart's resolution loop.
func TestPollOnGoneLeaderReturnsInItsWait(t *testing.T) {
	const wait, bound = 50 * time.Millisecond, 400 * time.Millisecond
	topic := goneBroker(t, 0)
	c := topic.OpenConsumer(0, 0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := c.Poll(10, wait); err == nil {
			t.Fatal("poll of a gone leader succeeded")
		}
		if took := time.Since(start); took > bound {
			t.Fatalf("poll %d with a %v wait took %v, want <= %v", i, wait, took, bound)
		}
	}
}
