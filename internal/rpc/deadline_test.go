package rpc

import (
	"errors"
	"testing"
	"time"

	"helios/internal/codec"
)

// A request frame carries the caller's timeout as a deadline budget, and the
// handler sees it as an absolute deadline on its own clock.
func TestDeadlineBudgetReachesHandler(t *testing.T) {
	s := NewServer()
	got := make(chan time.Duration, 1)
	s.HandleBuf("probe", func(ctx Ctx, _ []byte, _ *codec.Writer) error {
		got <- ctx.Remaining(time.Now())
		return nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("probe", nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rem := <-got
	if rem <= 0 || rem > 5*time.Second {
		t.Fatalf("remaining budget = %v, want in (0, 5s]", rem)
	}
}

// Untimed calls carry no budget: the handler sees a zero deadline.
func TestZeroTimeoutMeansNoDeadline(t *testing.T) {
	s := NewServer()
	got := make(chan Ctx, 1)
	s.HandleBuf("probe", func(ctx Ctx, _ []byte, _ *codec.Writer) error {
		got <- ctx
		return nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("probe", nil, 0); err != nil {
		t.Fatal(err)
	}
	ctx := <-got
	if !ctx.Deadline.IsZero() {
		t.Fatalf("deadline = %v, want zero", ctx.Deadline)
	}
	if ctx.Expired(time.Now().Add(time.Hour)) {
		t.Fatal("zero deadline reported expired")
	}
}

// A parked wait whose budget is already spent when its goroutine gets to
// it is refused with a typed ErrDeadlineExceeded — the wait never runs.
func TestExpiredRequestFailsFastWithoutHandler(t *testing.T) {
	s := NewServer()
	// The handler stalls on the read loop for longer than the call budget
	// before it parks, so the wait is dead on arrival.
	ran := make(chan struct{}, 1)
	s.HandleBuf("work", func(Ctx, []byte, *codec.Writer) error {
		time.Sleep(50 * time.Millisecond)
		return Park(func() error {
			ran <- struct{}{}
			return nil
		})
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Budget smaller than the stall. The client's own timer also fires;
	// either way the error must classify as a deadline error.
	_, err = c.Call("work", nil, 10*time.Millisecond)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	select {
	case <-ran:
		t.Fatal("the wait ran on an expired request")
	case <-time.After(100 * time.Millisecond):
	}
	if s.Expired.Value() == 0 {
		t.Fatal("server did not count the expired request")
	}
}

// A handler that bails out with ErrDeadlineExceeded stays typed across the
// hop: the client sees ErrDeadlineExceeded, not a RemoteError.
func TestHandlerDeadlineErrorStaysTyped(t *testing.T) {
	s := NewServer()
	s.Handle("work", func(req []byte) ([]byte, error) {
		return nil, ErrDeadlineExceeded
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("work", nil, time.Second)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("deadline error arrived as RemoteError %q", re.Msg)
	}
}

// ErrTimeout (single-attempt expiry) classifies as a deadline error and is
// not retried even with a retry budget.
func TestTimeoutClassifiesAsDeadline(t *testing.T) {
	if !errors.Is(ErrTimeout, ErrDeadlineExceeded) {
		t.Fatal("ErrTimeout does not wrap ErrDeadlineExceeded")
	}
	if retryable(ErrTimeout) || retryable(ErrDeadlineExceeded) {
		t.Fatal("deadline errors must not be retryable")
	}
}

// The timeout is a total budget across retry attempts, not a per-attempt
// allowance: with retries enabled against a down endpoint, the call returns
// once the budget is spent instead of waiting attempts × timeout.
func TestRetriesShareOneBudget(t *testing.T) {
	// Nothing listens on this address: every attempt fails at dial.
	c := DialOpts("127.0.0.1:1", Options{RetryBudget: 1000, BackoffMax: 5 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	_, err := c.Call("work", nil, 60*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call to dead endpoint succeeded")
	}
	// Generous bound: far below what 1000 per-attempt timeouts would take,
	// proving the budget is shared.
	if elapsed > 2*time.Second {
		t.Fatalf("call ran %v past its 60ms budget", elapsed)
	}
}
