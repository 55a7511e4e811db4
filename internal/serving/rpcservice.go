package serving

import (
	"errors"
	"fmt"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/rpc"
)

// RPC surface of a serving worker, used by the frontend in multi-process
// deployments. Requests run through the serving pool, so the §4.3 serving
// threads govern concurrency exactly as for in-process callers.

// MethodSample carries a batch of sampling queries in one frame; a lone
// query is a batch of one. The frontend combines the requests that queued
// for a partition while its calls were in flight; the worker decodes the
// batch once and assembles every member in a single actor turn. Per-member
// trace IDs ride in the payload, so each member keeps its own identity; the
// frame envelope's deadline, the earliest of the members', bounds them all.
const MethodSample = "helios.sample"

// MaxBatch caps the members of one MethodSample frame: a bound on how
// much work one admission slot can represent. The frontend never sends
// more; the worker refuses more, since its input arrives off a socket.
const MaxBatch = 1024

// MethodPing is the health-probe method the frontend uses to re-admit a
// replica it marked unhealthy after a failed call.
const MethodPing = "helios.ping"

// BatchItem is one member of a sampling batch.
type BatchItem struct {
	Query query.ID
	Seed  graph.VertexID
	// Trace is the member's own trace ID (0 = untraced).
	Trace uint64
}

// BatchResult is one member's outcome from Client.SampleBatch,
// index-aligned with the submitted items. Result aliases the batch's
// response frame.
type BatchResult struct {
	Result Encoded
	Err    error
}

// Batch response member statuses.
const (
	batchOK      = 0 // followed by the length-prefixed encoded answer
	batchErr     = 1 // followed by an error string
	batchExpired = 2 // the batch's deadline expired worker-side
)

// Cold batch protocol errors, hoisted out of the hot encode/decode paths.
var (
	errEmptyBatch        = errors.New("serving: empty sample batch")
	errBadBatchStatus    = errors.New("serving: bad batch member status")
	errBatchSizeMismatch = errors.New("serving: batch response size mismatch")
)

// minBatchItem is the least a batch request member encodes to: query,
// seed and trace at one byte each.
const minBatchItem = 3

// AppendBatchRequest encodes a batch request.
//
//lint:hotpath
func AppendBatchRequest(w *codec.Writer, items []BatchItem) {
	w.Uvarint(uint64(len(items)))
	for i := range items {
		it := &items[i]
		w.Uvarint(uint64(it.Query))
		w.Uvarint(uint64(it.Seed))
		w.Uvarint(it.Trace)
	}
}

// DecodeBatchRequest parses a batch request into items (reusing its
// backing array), consuming the whole buffer.
//
//lint:hotpath
func DecodeBatchRequest(r *codec.Reader, items []BatchItem) ([]BatchItem, error) {
	items = items[:0]
	for i, n := 0, r.Count(minBatchItem); i < n; i++ {
		items = append(items, BatchItem{
			Query: query.ID(r.Uvarint()),
			Seed:  graph.VertexID(r.Uvarint()),
			Trace: r.Uvarint(),
		})
	}
	if err := r.Err(); err != nil {
		return items, err
	}
	return items, r.Finish()
}

// AppendBatchResults encodes the per-member outcomes of a batch,
// index-aligned with the request's items.
//
//lint:hotpath
func AppendBatchResults(w *codec.Writer, resps []Response) {
	w.Uvarint(uint64(len(resps)))
	for i := range resps {
		rs := &resps[i]
		switch {
		case rs.Err == nil && rs.Result != nil:
			// Length-prefixed, so the client hands each member on as a
			// sub-slice of the frame without decoding it.
			w.Byte(batchOK)
			w.Bytes32(rs.Result)
		case errors.Is(rs.Err, rpc.ErrDeadlineExceeded):
			// Typed across the hop like frameExpired: the member maps back
			// to rpc.ErrDeadlineExceeded client-side without string matching.
			w.Byte(batchExpired)
		case rs.Err != nil:
			w.Byte(batchErr)
			w.String(rs.Err.Error())
		default:
			w.Byte(batchErr)
			w.String("serving: missing result")
		}
	}
}

// DecodeBatchResults parses the per-member outcomes of a batch,
// consuming the whole buffer. Successful members come back still encoded,
// as sub-slices of the buffer.
func DecodeBatchResults(r *codec.Reader) ([]BatchResult, error) {
	n := r.Count(1)
	out := make([]BatchResult, 0, n)
	for i := 0; i < n; i++ {
		switch r.Byte() {
		case batchOK:
			out = append(out, BatchResult{Result: r.Bytes32()})
		case batchErr:
			out = append(out, BatchResult{Err: &rpc.RemoteError{Msg: r.String()}})
		case batchExpired:
			out = append(out, BatchResult{Err: rpc.ErrDeadlineExceeded})
		default:
			if err := r.Err(); err != nil {
				return nil, err
			}
			return nil, errBadBatchStatus
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, r.Finish()
}

// ServeRPC registers the worker's sampling method on srv. The batch is
// decoded on the connection's read loop and its wait on the serving pool
// parks. The frame's trace ID and deadline budget (if any) ride into the
// pool so the worker records its leg of the trace, abandons work the caller
// gave up on, and returns the stage spans to the caller.
func ServeRPC(w *Worker, srv *rpc.Server) {
	srv.HandleBuf(MethodPing, func(rpc.Ctx, []byte, *codec.Writer) error { return nil })
	srv.HandleBuf(MethodSample, func(ctx rpc.Ctx, req []byte, out *codec.Writer) error {
		r := codec.NewReader(req)
		items, err := DecodeBatchRequest(r, nil)
		if err != nil {
			return err
		}
		if len(items) == 0 {
			return errEmptyBatch
		}
		if len(items) > MaxBatch {
			return fmt.Errorf("serving: sample batch of %d exceeds worker bound %d", len(items), MaxBatch)
		}
		return rpc.Park(func() error {
			resps, err := w.ServeBatch(ctx, items)
			if err != nil {
				return err
			}
			// The answers arrive encoded, header and all; what is left to
			// time as the encode stage is their copy into the server's
			// pooled reply writer. It is observed (with the frame's trace
			// exemplar) but not a span: the spans are already in each answer.
			encStart := w.cfg.Clock.Now()
			AppendBatchResults(out, resps)
			for _, r := range resps {
				r.Release()
			}
			w.stEncode.Observe(w.cfg.Clock.Now().Sub(encStart).Nanoseconds(), ctx.Trace)
			return nil
		})
	})
}

// ServeBatch runs a batch through the worker's admission limiter and the
// serve pool as one unit of work: one limiter slot, one mailbox send to the
// serve actor that slot names, one actor turn assembling every member under
// the deadline ctx carries (the frame's, the earliest of its members'). A
// batch the limiter sheds is refused as a batch: one shed, one error for
// every member. The slot stays held until the actor's turn ends, even when
// the deadline runs out first and ServeBatch returns
// rpc.ErrDeadlineExceeded; items must stay unchanged until then.
func (w *Worker) ServeBatch(ctx rpc.Ctx, items []BatchItem) ([]Response, error) {
	slot, release, err := w.limiter.Acquire(ctx.Deadline)
	if err != nil {
		w.cfg.Logger.Warn(ctx.Trace, "serving.admission", "sample batch shed",
			"members", len(items), "err", err)
		return nil, err
	}
	req := request{batch: items, resp: make(chan []Response, 1), release: release,
		enqueued: w.cfg.Clock.Now().UnixNano()}
	if !ctx.Deadline.IsZero() {
		req.deadline = ctx.Deadline.UnixNano()
	}
	w.servePool.SendTo(slot, req)
	if ctx.Deadline.IsZero() {
		return <-req.resp, nil
	}
	// An answer nobody waits for any more is never released; the collector
	// takes it.
	t := time.NewTimer(ctx.Deadline.Sub(w.cfg.Clock.Now()))
	defer t.Stop()
	select {
	case out := <-req.resp:
		return out, nil
	case <-t.C:
		w.deadlineExp.Inc()
		return nil, rpc.ErrDeadlineExceeded
	}
}

// Client calls a remote serving worker.
type Client struct {
	c       *rpc.Client
	timeout time.Duration
}

// DialServing connects to a serving worker's RPC endpoint. The client is
// self-healing: a dropped connection is re-dialed with backoff and a
// failed call retried once (sampling is read-only, so a duplicate is
// free). The worker being down at dial time is not an error.
func DialServing(addr string, timeout time.Duration) (*Client, error) {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	return &Client{c: rpc.DialOpts(addr, rpc.Options{RetryBudget: 1}), timeout: timeout}, nil
}

// RPC exposes the underlying transport client (reconnect/retry counters).
func (c *Client) RPC() *rpc.Client { return c.c }

// Ping probes the worker's liveness with a short deadline and no retries
// beyond the transport's own budget.
func (c *Client) Ping(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = time.Second
	}
	_, err := c.c.Call(MethodPing, nil, timeout)
	return err
}

// SampleBudget executes one sampling query, a batch of one, carrying a
// trace ID (0 = untraced) under an explicit deadline budget: the call times
// out — and the RPC frame tells the worker to abandon the request — after
// min(budget, the client's configured timeout). budget <= 0 means the
// configured timeout alone.
func (c *Client) SampleBudget(qid query.ID, seed graph.VertexID, trace uint64, budget time.Duration) (*Result, error) {
	out, err := c.SampleBatch([]BatchItem{{Query: qid, Seed: seed, Trace: trace}}, budget)
	if err != nil {
		return nil, err
	}
	if out[0].Err != nil {
		return nil, out[0].Err
	}
	return out[0].Result.Decode()
}

// bound is a call's timeout: budget where it is tighter than the client's
// configured timeout. A zero configured timeout means "no client-side
// bound", and any positive budget must still bound the call.
func (c *Client) bound(budget time.Duration) time.Duration {
	if budget > 0 && (c.timeout == 0 || budget < c.timeout) {
		return budget
	}
	return c.timeout
}

// SampleBatch executes a batch of sampling queries in one RPC frame,
// returning per-member outcomes index-aligned with items, of which there
// is at least one (the worker refuses an empty batch). budget
// bounds the whole call like SampleBudget's and is the one deadline every
// member is served under: a batch that reaches its serve actor after the
// budget ran out fails every member with rpc.ErrDeadlineExceeded, and one
// that reaches it in time serves them all. The frame carries the first
// member's trace ID, for the worker's encode-stage exemplar; every member
// keeps its own in the payload.
func (c *Client) SampleBatch(items []BatchItem, budget time.Duration) ([]BatchResult, error) {
	w := codec.GetWriter()
	AppendBatchRequest(w, items)
	resp, err := c.c.CallTraced(MethodSample, items[0].Trace, w.Bytes(), c.bound(budget))
	codec.PutWriter(w)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(resp)
	out, err := DecodeBatchResults(r)
	if err != nil {
		return nil, err
	}
	if len(out) != len(items) {
		return nil, errBatchSizeMismatch
	}
	return out, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }
