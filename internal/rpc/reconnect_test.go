package rpc

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/faultpoint"
)

// restartServer binds a fresh echo server on addr ("" = ephemeral) and
// returns it with its bound address.
func restartServer(t *testing.T, addr string) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var bound string
	var err error
	// Rebinding a just-closed port can transiently fail; retry briefly.
	for i := 0; i < 100; i++ {
		bound, err = s.Listen(addr)
		if err == nil {
			return s, bound
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("listen %s: %v", addr, err)
	return nil, ""
}

func TestReconnectAcrossServerRestart(t *testing.T) {
	s1, addr := restartServer(t, "")
	c := DialOpts(addr, Options{RetryBudget: 8})
	defer c.Close()
	if _, err := c.Call("echo", []byte("a"), time.Second); err != nil {
		t.Fatal(err)
	}

	s1.Close()
	s2, _ := restartServer(t, addr)
	defer s2.Close()

	resp, err := c.Call("echo", []byte("b"), time.Second)
	if err != nil || !bytes.Equal(resp, []byte("b")) {
		t.Fatalf("call after restart: %q %v", resp, err)
	}
	if c.Reconnects.Value() == 0 {
		t.Fatal("no reconnect counted")
	}
	if TotalReconnects() == 0 {
		t.Fatal("package-wide reconnects not counted")
	}
}

func TestReconnectDialsLazily(t *testing.T) {
	// A client must construct even when the target is down, and heal once
	// it comes up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening now

	c := DialOpts(addr, Options{RetryBudget: 50, BackoffMax: 10 * time.Millisecond})
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call("echo", []byte("x"), time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	s, _ := restartServer(t, addr)
	defer s.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after server came up: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not recover after server start")
	}
	if c.DialFailures.Value() == 0 || c.Retries.Value() == 0 {
		t.Fatalf("counters: dialFailures=%d retries=%d, want both > 0",
			c.DialFailures.Value(), c.Retries.Value())
	}
}

func TestRetryExhaustion(t *testing.T) {
	defer faultpoint.Reset()
	s, addr := restartServer(t, "")
	defer s.Close()
	c := DialOpts(addr, Options{RetryBudget: 3, BackoffMax: 2 * time.Millisecond})
	defer c.Close()
	if _, err := c.Call("echo", nil, time.Second); err != nil {
		t.Fatal(err)
	}

	// Every write attempt fails: the initial try plus 3 retries, then the
	// budget is exhausted and the injected error surfaces.
	faultpoint.ErrorN("rpc.client.write", -1)
	_, err := c.Call("echo", nil, time.Second)
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if got := c.Retries.Value(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if got := faultpoint.Hits("rpc.client.write"); got != 4 {
		t.Fatalf("write attempts = %d, want 4", got)
	}

	// A bounded fault heals within the budget.
	faultpoint.ErrorN("rpc.client.write", 2)
	if _, err := c.Call("echo", nil, time.Second); err != nil {
		t.Fatalf("call with 2 transient faults and budget 3: %v", err)
	}
}

func TestRemoteErrorsAndTimeoutsNotRetried(t *testing.T) {
	s := NewServer()
	var calls sync.Map
	count := func(k string) int64 {
		v, _ := calls.LoadOrStore(k, new(int64))
		*(v.(*int64))++
		return *(v.(*int64))
	}
	s.Handle("fail", func(req []byte) ([]byte, error) {
		count("fail")
		return nil, errors.New("boom")
	})
	s.Handle("slow", func(req []byte) ([]byte, error) {
		count("slow")
		time.Sleep(300 * time.Millisecond)
		return req, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := DialOpts(addr, Options{RetryBudget: 5})
	defer c.Close()

	var re *RemoteError
	if _, err := c.Call("fail", nil, time.Second); !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Call("slow", nil, 30*time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if got := c.Retries.Value(); got != 0 {
		t.Fatalf("retries = %d, want 0 (remote errors and timeouts are final)", got)
	}
}

func TestBackoffSequencing(t *testing.T) {
	// A fake clock never advances, so each dial attempt must sleep the
	// full jittered backoff; a recording Sleep captures the sequence.
	var mu sync.Mutex
	var slept []time.Duration
	fc := clock.NewFake()
	c := DialOpts("127.0.0.1:1", Options{ // nothing listens on port 1
		RetryBudget: 6,
		BackoffMax:  100 * time.Millisecond,
		Seed:        42,
		Clock:       fc,
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	defer c.Close()

	if _, err := c.Call("echo", nil, time.Second); err == nil {
		t.Fatal("call to dead port should fail")
	}

	mu.Lock()
	defer mu.Unlock()
	// 7 dial attempts (1 + 6 retries): no wait before the first, then a
	// backoff before each of the 6 redials.
	if len(slept) != 6 {
		t.Fatalf("recorded %d sleeps (%v), want 6", len(slept), slept)
	}
	// Attempt n's nominal backoff is min(20ms<<(n-1), max); jitter keeps
	// the wait within [nominal/2, nominal].
	nominal := []time.Duration{
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond,
		100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond,
	}
	for i, d := range slept {
		if d < nominal[i]/2 || d > nominal[i] {
			t.Fatalf("sleep[%d] = %v, want within [%v, %v]", i, d, nominal[i]/2, nominal[i])
		}
	}
	if got := c.DialFailures.Value(); got != 7 {
		t.Fatalf("dial failures = %d, want 7", got)
	}
}

// TestBackoffPastBudgetFailsFast: a call whose budget ends before the next
// redial is due fails at once with the last dial's error, neither sleeping
// the backoff out nor dialing; a budget that covers it still redials.
func TestBackoffPastBudgetFailsFast(t *testing.T) {
	var slept []time.Duration
	c := DialOpts("127.0.0.1:1", Options{ // nothing listens on port 1
		BackoffMax: time.Second,
		Clock:      clock.NewFake(), // never advances: every backoff is owed in full
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	})
	defer c.Close()
	for i := 0; i < 6; i++ { // backoff before the 7th dial: [320, 640] ms
		if _, err := c.Call("echo", nil, time.Minute); err == nil {
			t.Fatal("call to dead port should fail")
		}
	}
	sleeps, dials := len(slept), c.DialFailures.Value()
	if _, err := c.Call("echo", nil, 100*time.Millisecond); err == nil || errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("call with a budget inside the backoff = %v, want the last dial's error", err)
	}
	if len(slept) != sleeps || c.DialFailures.Value() != dials {
		t.Fatalf("the short call slept %v and dialed %d times, want neither",
			slept[sleeps:], c.DialFailures.Value()-dials)
	}
	if _, err := c.Call("echo", nil, time.Minute); err == nil || c.DialFailures.Value() != dials+1 {
		t.Fatalf("a call whose budget covers the backoff did not redial: %v", err)
	}
}

func TestBackoffJitterVariesWithinBounds(t *testing.T) {
	c := &Client{opts: Options{BackoffMax: time.Second, Seed: 7}}
	c.opts.fillDefaults()
	c.rng = rand.New(rand.NewSource(7))
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		d := c.backoffLocked(1)
		if d < backoffBase/2 || d > backoffBase {
			t.Fatalf("backoff(1) = %v out of [%v, %v]", d, backoffBase/2, backoffBase)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant backoff")
	}
}

func TestCloseStopsReconnecting(t *testing.T) {
	c := DialOpts("127.0.0.1:1", Options{BackoffMax: 2 * time.Millisecond})
	c.Close()
	if _, err := c.Call("echo", nil, time.Second); err != ErrClosed {
		t.Fatalf("call after close = %v, want ErrClosed", err)
	}
	if c.Close() != nil {
		t.Fatal("double close")
	}
}

func TestServerWriteFaultClosesConn(t *testing.T) {
	defer faultpoint.Reset()
	s, addr := restartServer(t, "")
	defer s.Close()
	c := DialOpts(addr, Options{RetryBudget: 4})
	defer c.Close()
	if _, err := c.Call("echo", nil, time.Second); err != nil {
		t.Fatal(err)
	}

	// A failed response write closes the server side of the connection;
	// the client's readLoop fails fast and the retry heals on a fresh
	// connection instead of waiting out the timeout.
	faultpoint.ErrorOnce("rpc.server.write")
	start := time.Now()
	if _, err := c.Call("echo", nil, 10*time.Second); err != nil {
		t.Fatalf("call should heal via retry: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("recovery waited for the timeout instead of failing fast")
	}
	if s.Errors.Value() == 0 {
		t.Fatal("server write failure not counted in s.Errors")
	}
	if c.Retries.Value() == 0 {
		t.Fatal("client did not retry after server write fault")
	}
}

// TestWaitersShareAFailedDial parks many callers behind one slow redial to
// a dead peer. They must all fail with that dial's outcome: one more dial
// in total, not one per caller queued behind a growing backoff.
func TestWaitersShareAFailedDial(t *testing.T) {
	const callers = 16
	release := make(chan struct{})
	c := DialOpts("127.0.0.1:1", Options{ // nothing listens on port 1
		Clock: clock.NewFake(), // never advances: every redial owes a full backoff
		Sleep: func(time.Duration) { <-release },
	})
	defer c.Close()
	if _, err := c.Call("echo", nil, time.Second); err == nil {
		t.Fatal("call to dead port should fail")
	}
	before := c.DialFailures.Value()

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Call("echo", nil, 0)
			errs <- err
		}()
	}
	// One caller is inside the backoff sleep; give the rest time to queue
	// behind it, then let the dial proceed and fail.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("call to dead port should fail")
		}
	}
	// A straggler that arrived after the shared dial finished dials for
	// itself; the sixteen must not have dialed sixteen times.
	if d := c.DialFailures.Value() - before; d > callers/4 {
		t.Fatalf("%d callers caused %d dials to the dead peer, want them to share one", callers, d)
	}
}

// TestCloseEndsBackoff: a stream open has no budget, so it sleeps whatever
// redial backoff is owed; Close during that sleep returns it with ErrClosed
// at once, not when the backoff ends.
func TestCloseEndsBackoff(t *testing.T) {
	// Nothing listens on port 1, and the fake clock never advances, so the
	// whole backoff is owed.
	fc := clock.NewFake()
	c := DialOpts("127.0.0.1:1", Options{BackoffMax: time.Second, Clock: fc})
	c.connMu.Lock()
	c.failures, c.lastDial = 6, fc.Now() // the next redial waits [320, 640] ms
	c.connMu.Unlock()
	opened := make(chan error, 1)
	go func() {
		_, err := c.OpenStream("echo", nil, 1)
		opened <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.connMu.Lock()
		backingOff := c.dialing != nil
		c.connMu.Unlock()
		if backingOff {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the open never reached its backoff")
		}
	}
	start := time.Now()
	c.Close()
	select {
	case err := <-opened:
		if took := time.Since(start); !errors.Is(err, ErrClosed) || took > 100*time.Millisecond {
			t.Fatalf("OpenStream returned %v %v after Close, want ErrClosed within 100ms", err, took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OpenStream never returned after Close")
	}
}
