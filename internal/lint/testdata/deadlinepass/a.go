// Package deadlinepass exercises the deadline-propagation analyzer with
// local mimics of the rpc surface: a Ctx carrying the inbound budget, a
// Client with Call/CallTraced, and a Server with Handle/HandleBuf and Park.
package deadlinepass

import "time"

// Ctx mimics rpc.Ctx: the inbound request context with a deadline budget.
type Ctx struct{ Deadline time.Time }

// Remaining mimics rpc.Ctx.Remaining.
func (c Ctx) Remaining() time.Duration { return time.Until(c.Deadline) }

// Client mimics the rpc transport client.
type Client struct{}

// Call mimics rpc.Client.Call.
func (c *Client) Call(method string, payload []byte, timeout time.Duration) ([]byte, error) {
	return nil, nil
}

// CallTraced mimics rpc.Client.CallTraced.
func (c *Client) CallTraced(method string, trace uint64, payload []byte, timeout time.Duration) ([]byte, error) {
	return nil, nil
}

// Server mimics the rpc server registration surface.
type Server struct{}

// Handle registers a budget-blind handler.
func (s *Server) Handle(method string, h func([]byte) ([]byte, error)) {}

// Writer mimics the server-pooled reply writer.
type Writer struct{}

// HandleBuf registers a budget-aware handler: the one full form.
func (s *Server) HandleBuf(method string, h func(Ctx, []byte, *Writer) error) {}

// Park mimics rpc.Park: the wait runs off the read loop.
func Park(wait func() error) error { return nil }

var cli *Client

// --- rule 1: rpc.Ctx handlers must forward the inbound budget ---

// handleFresh issues a downstream call with a fresh constant, ignoring the
// budget it was handed.
func handleFresh(ctx Ctx, payload []byte) ([]byte, error) {
	return cli.Call("next", payload, time.Second) // want deadlinepass
}

// handleDerived forwards the inbound budget directly.
func handleDerived(ctx Ctx, payload []byte) ([]byte, error) {
	return cli.Call("next", payload, ctx.Remaining())
}

// handleViaLocal derives the timeout through a local.
func handleViaLocal(ctx Ctx, payload []byte) ([]byte, error) {
	budget := ctx.Remaining()
	if budget > time.Second {
		budget = time.Second
	}
	return cli.Call("next", payload, budget)
}

// registerHandlers covers the literal-handler shape on both sides.
func registerHandlers(srv *Server) {
	srv.HandleBuf("bad", func(ctx Ctx, payload []byte, _ *Writer) error {
		_, err := cli.CallTraced("next", 0, payload, 50*time.Millisecond) // want deadlinepass
		return err
	})
	srv.HandleBuf("good", func(ctx Ctx, payload []byte, _ *Writer) error {
		_, err := cli.Call("next", payload, ctx.Remaining())
		return err
	})
	// A parked wait is the handler's scope: a fresh timeout there is as
	// budget-blind as one on the read loop.
	srv.HandleBuf("parked", func(ctx Ctx, payload []byte, _ *Writer) error {
		return Park(func() error {
			_, err := cli.Call("next", payload, time.Second) // want deadlinepass
			return err
		})
	})
	srv.HandleBuf("parkedGood", func(ctx Ctx, payload []byte, _ *Writer) error {
		return Park(func() error {
			_, err := cli.Call("next", payload, ctx.Remaining())
			return err
		})
	})
}

// --- rule 2: fan-out loops must recompute the timeout per iteration ---

type fanout struct {
	clients []*Client
	timeout time.Duration
}

// assembleInvariant issues one RPC per partition with a loop-invariant
// timeout: the loop's worst-case wait is len(clients) x timeout.
func (f *fanout) assembleInvariant(payload []byte) error {
	for _, c := range f.clients {
		if _, err := c.Call("sample", payload, f.timeout); err != nil { // want deadlinepass
			return err
		}
	}
	return nil
}

// assembleDeadline re-derives each call's budget from a loop-entry
// deadline, so the whole fan-out shares one wait.
func (f *fanout) assembleDeadline(payload []byte) error {
	deadline := time.Now().Add(f.timeout)
	for _, c := range f.clients {
		if _, err := c.Call("sample", payload, time.Until(deadline)); err != nil {
			return err
		}
	}
	return nil
}

// assemblePerIteration computes the budget inside the loop body.
func (f *fanout) assemblePerIteration(payload []byte, budgets []time.Duration) error {
	for i, c := range f.clients {
		b := budgets[i]
		if _, err := c.Call("sample", payload, b); err != nil {
			return err
		}
	}
	return nil
}

// retryForever is the unbounded retry shape the loop rule leaves alone:
// a `for {}` loop runs until success, not over a fan-out set.
func (f *fanout) retryForever(payload []byte) {
	for {
		if _, err := cli.Call("ping", payload, f.timeout); err == nil {
			return
		}
	}
}

// assembleAllowed is the suppressed case.
func (f *fanout) assembleAllowed(payload []byte) error {
	for _, c := range f.clients {
		//lint:allow deadlinepass reason=fixture: single-partition deployments make this loop one iteration
		if _, err := c.Call("sample", payload, f.timeout); err != nil {
			return err
		}
	}
	return nil
}

// --- rule 3: budget-blind registration of handlers that issue RPCs ---

func doRPC(payload []byte) ([]byte, error) {
	return cli.Call("next", payload, time.Second)
}

func doLocalWork(payload []byte) ([]byte, error) { return payload, nil }

func registerBlind(srv *Server) {
	srv.Handle("relay", doRPC) // want deadlinepass
	srv.Handle("ping", doLocalWork)
	srv.Handle("inline", func(payload []byte) ([]byte, error) { // want deadlinepass
		return cli.Call("next", payload, time.Second)
	})
}
