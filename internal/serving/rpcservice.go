package serving

import (
	"errors"
	"fmt"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/overload"
	"helios/internal/query"
	"helios/internal/rpc"
)

// RPC surface of a serving worker, used by the frontend in multi-process
// deployments. Requests run through the serving pool, so the §4.3 serving
// threads govern concurrency exactly as for in-process callers.

// MethodSample is the RPC method name for sampling queries.
const MethodSample = "helios.sample"

// MethodSampleBatch carries a coalesced batch of sampling queries in one
// frame: the frontend groups concurrent requests bound for the same
// partition, the worker decodes the batch once and assembles every member
// in a single actor turn. Per-member trace IDs and deadline budgets ride
// in the payload, so each member keeps its own identity and deadline even
// though the frame envelope carries only the batch-wide minimum.
const MethodSampleBatch = "helios.sample_batch"

// MethodPing is the health-probe method the frontend uses to re-admit a
// replica it marked unhealthy after a failed call.
const MethodPing = "helios.ping"

// BatchItem is one member of a coalesced sampling batch.
type BatchItem struct {
	Query query.ID
	Seed  graph.VertexID
	// Trace is the member's own trace ID (0 = untraced).
	Trace uint64
	// Budget is the member's remaining deadline budget in nanoseconds,
	// relative to the worker's receipt of the batch (<= 0 = no deadline).
	// Like the frame-level budget, a relative duration needs no clock
	// agreement between frontend and worker.
	Budget int64
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
	batchExpired = 2 // the member's own deadline expired worker-side
)

// Cold batch protocol errors, hoisted out of the hot encode/decode paths.
var (
	errEmptyBatch        = errors.New("serving: empty sample batch")
	errBadBatchStatus    = errors.New("serving: bad batch member status")
	errBatchSizeMismatch = errors.New("serving: batch response size mismatch")
)

// minBatchItem is the least a batch request member encodes to: query,
// seed, trace and budget at one byte each.
const minBatchItem = 4

func batchTooLarge(n, max int) error {
	return fmt.Errorf("serving: sample batch of %d exceeds worker bound %d", n, max)
}

// AppendBatchRequest encodes a coalesced batch request.
//
//lint:hotpath
func AppendBatchRequest(w *codec.Writer, items []BatchItem) {
	w.Uvarint(uint64(len(items)))
	for i := range items {
		it := &items[i]
		w.Uvarint(uint64(it.Query))
		w.Uvarint(uint64(it.Seed))
		w.Uvarint(it.Trace)
		w.Varint(it.Budget)
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
			Query:  query.ID(r.Uvarint()),
			Seed:   graph.VertexID(r.Uvarint()),
			Trace:  r.Uvarint(),
			Budget: r.Varint(),
		})
	}
	if err := r.Err(); err != nil {
		return items, err
	}
	return items, r.Finish()
}

// AppendBatchResponse encodes the per-member outcomes of a batch,
// index-aligned with the request's items.
//
//lint:hotpath
func AppendBatchResponse(w *codec.Writer, resps []Response) {
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

// DecodeBatchResponse parses the per-member outcomes of a batch,
// consuming the whole buffer. Successful members come back still encoded,
// as sub-slices of the buffer.
func DecodeBatchResponse(r *codec.Reader) ([]BatchResult, error) {
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

// ServeRPC registers the worker's sampling method on srv. The frame's
// trace ID and deadline budget (if any) ride into the serving pool so the
// worker records its leg of the trace, abandons work the caller gave up on,
// and returns the stage spans to the caller.
func ServeRPC(w *Worker, srv *rpc.Server) {
	srv.Handle(MethodPing, func(req []byte) ([]byte, error) {
		return nil, nil
	})
	srv.HandleBuf(MethodSample, func(ctx rpc.Ctx, req []byte, out *codec.Writer) error {
		r := codec.NewReader(req)
		qid := query.ID(r.Uvarint())
		seed := graph.VertexID(r.Uvarint())
		if err := r.Err(); err != nil {
			return err
		}
		resp := w.ServeAdmitted(ctx, qid, seed)
		if resp.Err != nil {
			return resp.Err
		}
		// The answer arrives encoded, header and all; what is left to time
		// as the encode stage is its copy into the server's pooled reply
		// writer. It is observed (with the request's trace exemplar) but not
		// a span: the spans are already in the payload. Frontend-side it
		// reads as rpc_transport residual.
		encStart := w.cfg.Clock.Now()
		out.Raw(resp.Result)
		resp.Release()
		w.stEncode.Observe(w.cfg.Clock.Now().Sub(encStart).Nanoseconds(), ctx.Trace)
		return nil
	})
	srv.HandleBuf(MethodSampleBatch, func(ctx rpc.Ctx, req []byte, out *codec.Writer) error {
		r := codec.NewReader(req)
		items, err := DecodeBatchRequest(r, nil)
		if err != nil {
			return err
		}
		if len(items) == 0 {
			return errEmptyBatch
		}
		if max := w.cfg.MaxBatch; max > 0 && len(items) > max {
			return batchTooLarge(len(items), max)
		}
		resps, err := w.ServeBatch(ctx, items)
		if err != nil {
			return err
		}
		encStart := w.cfg.Clock.Now()
		AppendBatchResponse(out, resps)
		for _, r := range resps {
			r.Release()
		}
		w.stEncode.Observe(w.cfg.Clock.Now().Sub(encStart).Nanoseconds(), ctx.Trace)
		return nil
	})
}

// ServeAdmitted runs one sampling request through the worker's admission
// limiter and the serve pool. It is the overload surface of the worker:
//
//   - the limiter sheds when the queue is full or the remaining budget
//     cannot cover the observed service time;
//   - a shed request with budget left gets the degraded path instead when
//     cfg.Degrade is on — a cached answer now beats an error;
//   - an admitted request carries its deadline into the pool (fast-fail at
//     dequeue) and the caller stops waiting the moment the budget runs out.
//
// The caller releases the Response.
func (w *Worker) ServeAdmitted(ctx rpc.Ctx, qid query.ID, seed graph.VertexID) Response {
	release, err := w.limiter.Acquire(ctx.Deadline)
	if err != nil {
		if w.cfg.Degrade && overload.IsOverload(err) && !ctx.Expired(w.cfg.Clock.Now()) {
			if resp := w.SampleDegraded(qid, seed); resp.Err == nil {
				w.cfg.Logger.Info(ctx.Trace, "serving.admission", "degraded serve under shed",
					"seed", uint64(seed), "staleness", time.Duration(w.staleness.Value()))
				return resp
			}
		}
		w.cfg.Logger.Warn(ctx.Trace, "serving.admission", "sample shed", "seed", uint64(seed), "err", err)
		return Response{Err: err}
	}
	defer release()
	resp := make(chan Response, 1)
	if out, ok := await(w, ctx, Request{Query: qid, Seed: seed, Resp: resp, Trace: ctx.Trace}, resp); ok {
		return out
	}
	return Response{Err: rpc.ErrDeadlineExceeded}
}

// ServeBatch runs a coalesced batch through the worker's admission
// limiter and the serve pool as one unit of work: one limiter slot, one
// mailbox send, one actor turn assembling every member. The frame
// deadline (the batch minimum, per the frontend's coalescing rule) bounds
// the whole batch; each member's own budget is enforced per item inside
// the turn. A shed sheds the whole batch — the degraded path stays a
// single-request affair, since a batch under shed pressure is better
// retried unbatched than answered with N stale results.
func (w *Worker) ServeBatch(ctx rpc.Ctx, items []BatchItem) ([]Response, error) {
	release, err := w.limiter.Acquire(ctx.Deadline)
	if err != nil {
		w.cfg.Logger.Warn(ctx.Trace, "serving.admission", "batch shed", "size", len(items), "err", err)
		return nil, err
	}
	defer release()
	resp := make(chan []Response, 1)
	if out, ok := await(w, ctx, Request{Batch: items, BatchResp: resp, Trace: ctx.Trace}, resp); ok {
		return out, nil
	}
	return nil, rpc.ErrDeadlineExceeded
}

// await submits req carrying ctx's deadline and waits for its answer on
// resp, or reports false once the budget runs out. The pool still dequeues
// an abandoned request and fast-fails it; resp is buffered, so nothing
// leaks (an answer nobody reads is never released; the collector takes it).
func await[T any](w *Worker, ctx rpc.Ctx, req Request, resp <-chan T) (T, bool) {
	if !ctx.Deadline.IsZero() {
		req.Deadline = ctx.Deadline.UnixNano()
	}
	w.Submit(req)
	if ctx.Deadline.IsZero() {
		return <-resp, true
	}
	t := time.NewTimer(ctx.Deadline.Sub(w.cfg.Clock.Now()))
	defer t.Stop()
	select {
	case out := <-resp:
		return out, true
	case <-t.C:
		w.deadlineExp.Inc()
		var none T
		return none, false
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
	c, err := rpc.DialOpts(addr, rpc.Options{Reconnect: true, RetryBudget: 1})
	if err != nil {
		return nil, err
	}
	return &Client{c: c, timeout: timeout}, nil
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

// Sample executes a sampling query on the remote worker.
func (c *Client) Sample(qid query.ID, seed graph.VertexID) (*Result, error) {
	return c.SampleBudget(qid, seed, 0, 0)
}

// SampleBudget is SampleEncoded with the answer decoded.
func (c *Client) SampleBudget(qid query.ID, seed graph.VertexID, trace uint64, budget time.Duration) (*Result, error) {
	enc, err := c.SampleEncoded(qid, seed, trace, budget)
	if err != nil {
		return nil, err
	}
	return enc.Decode()
}

// SampleEncoded executes a sampling query carrying a trace ID in the RPC
// envelope (0 = untraced) under an explicit deadline budget: the call
// times out — and the RPC frame tells the worker to abandon the request —
// after min(budget, the client's configured timeout). budget <= 0 means
// the configured timeout alone. The answer comes back as the worker
// encoded it; the caller owns the bytes.
func (c *Client) SampleEncoded(qid query.ID, seed graph.VertexID, trace uint64, budget time.Duration) (Encoded, error) {
	timeout := c.timeout
	// A zero configured timeout means "no client-side bound", and any
	// positive budget must still bound the call — comparing against the
	// zero would silently discard the caller's deadline.
	if budget > 0 && (timeout == 0 || budget < timeout) {
		timeout = budget
	}
	w := codec.NewWriter(20)
	w.Uvarint(uint64(qid))
	w.Uvarint(uint64(seed))
	return c.c.CallTraced(MethodSample, trace, w.Bytes(), timeout)
}

// SampleBatch executes a coalesced batch of sampling queries in one RPC
// frame, returning per-member outcomes index-aligned with items. budget
// bounds the whole call like SampleBudget's; the members' own budgets
// ride inside the payload (BatchItem.Budget), so one short-deadline
// member fails fast worker-side without extending or truncating its
// batchmates.
func (c *Client) SampleBatch(items []BatchItem, budget time.Duration) ([]BatchResult, error) {
	timeout := c.timeout
	if budget > 0 && (timeout == 0 || budget < timeout) {
		timeout = budget
	}
	// The frame trace is the first traced member's ID — enough to correlate
	// the worker's encode-stage exemplar; every member keeps its own trace
	// in the payload.
	var trace uint64
	for i := range items {
		if items[i].Trace != 0 {
			trace = items[i].Trace
			break
		}
	}
	w := codec.GetWriter()
	AppendBatchRequest(w, items)
	resp, err := c.c.CallTraced(MethodSampleBatch, trace, w.Bytes(), timeout)
	codec.PutWriter(w)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(resp)
	out, err := DecodeBatchResponse(r)
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
