// Package rpc is the length-framed binary RPC layer connecting Helios
// processes: the frontend to serving workers, workers to the coordinator,
// and the distributed graphdb baseline's partitions to each other. It is a
// minimal multiplexed request/response protocol over TCP — one connection
// carries any number of concurrent calls correlated by request ID.
//
// Clients come in two modes. Dial gives the classic single-connection
// client: once the connection drops, every future call fails. DialOpts
// with Options.Reconnect builds a self-healing client — it dials on
// demand, re-establishes dropped connections with jittered exponential
// backoff, and (with a RetryBudget) transparently retries calls that hit
// transport failures. That mode is what lets the §4.1 replay story hold
// end to end: a broker restart is a pause, not a permanent wedge, for
// every RemoteBroker-backed worker.
//
// For experiments that model datacenter topologies (Fig. 4(d) varies
// cluster size), both ends accept an injected per-call delay that stands in
// for network RTT beyond the loopback's.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/faultpoint"
	"helios/internal/obs"
)

// ErrClosed reports use of a closed client or server.
var ErrClosed = errors.New("rpc: closed")

// ErrDeadlineExceeded reports that a call's deadline budget ran out — either
// locally (the caller gave up waiting) or remotely (the server refused or
// abandoned work on a request whose budget had already expired in transit).
// Deadline errors are never retried: the time is gone no matter whose clock
// noticed first.
var ErrDeadlineExceeded = errors.New("rpc: deadline exceeded")

// ErrTimeout reports an expired call deadline on a single attempt. It wraps
// ErrDeadlineExceeded so errors.Is(err, ErrDeadlineExceeded) classifies both.
var ErrTimeout = fmt.Errorf("rpc: call timeout: %w", ErrDeadlineExceeded)

// RemoteError wraps an error string returned by a handler.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc: remote: " + e.Msg }

const (
	frameRequest  = 0
	frameResponse = 1
	frameError    = 2
	// frameExpired is a response meaning the server observed the request's
	// deadline budget already spent and did no work (or the handler itself
	// returned ErrDeadlineExceeded). It maps back to ErrDeadlineExceeded on
	// the client so the type survives the hop without string matching.
	frameExpired = 3

	maxFrame = 64 << 20 // sanity bound
)

// openClients is every open Client of the process, closedTransport what the
// closed ones had counted: the process-wide transport counters are sums over
// both, taken when read, so an event is counted once, on its client.
var (
	clientsMu       sync.Mutex
	openClients     = make(map[*Client]struct{})
	closedTransport [3]int64 // reconnects, retries, dial failures
)

// transport returns c's transport counters in closedTransport order.
func (c *Client) transport() [3]int64 {
	return [3]int64{c.Reconnects.Value(), c.Retries.Value(), c.DialFailures.Value()}
}

func transportTotal(i int) int64 {
	clientsMu.Lock()
	defer clientsMu.Unlock()
	sum := closedTransport[i]
	for c := range openClients {
		sum += c.transport()[i]
	}
	return sum
}

// TotalReconnects reports successful re-dials across all clients.
func TotalReconnects() int64 { return transportTotal(0) }

// TotalRetries reports call retries across all clients.
func TotalRetries() int64 { return transportTotal(1) }

// RegisterMetrics exposes the process-wide transport counters on reg:
// rpc.reconnects, rpc.retries, rpc.dial_failures.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("rpc.reconnects", TotalReconnects)
	reg.CounterFunc("rpc.retries", TotalRetries)
	reg.CounterFunc("rpc.dial_failures", func() int64 { return transportTotal(2) })
}

// Handler processes one request payload and returns the response payload.
type Handler func(req []byte) ([]byte, error)

// Ctx carries the per-request frame metadata a handler may care about: the
// caller's trace ID (0 = untraced) and the absolute deadline derived from
// the frame's budget field (zero time = no deadline).
type Ctx struct {
	Trace    uint64
	Deadline time.Time
}

// Expired reports whether the request's deadline has passed at now. A zero
// deadline never expires.
func (c Ctx) Expired(now time.Time) bool {
	return !c.Deadline.IsZero() && !now.Before(c.Deadline)
}

// Remaining returns the budget left at now, or 0 if there is no deadline.
// An expired deadline returns a negative duration.
func (c Ctx) Remaining(now time.Time) time.Duration {
	if c.Deadline.IsZero() {
		return 0
	}
	return c.Deadline.Sub(now)
}

// CtxHandler is the full-fidelity handler form: it receives the trace ID
// and the propagated deadline. Handlers that fan out further RPCs pass
// ctx.Remaining as the downstream timeout so the budget shrinks hop by hop.
type CtxHandler func(ctx Ctx, req []byte) ([]byte, error)

// BufHandler is the zero-copy handler form: the response is encoded into
// resp, a pooled writer the server owns — it frames and recycles the
// buffer after the response write, so the handler must not retain resp
// (or anything aliasing its bytes) past return. req is likewise a pooled
// read buffer released when the handler returns; retain a copy, never the
// slice.
type BufHandler func(ctx Ctx, req []byte, resp *codec.Writer) error

// handlerEntry holds one registered handler in exactly one of its forms.
type handlerEntry struct {
	ctx CtxHandler
	buf BufHandler
}

// Server serves registered handlers over TCP.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handlerEntry
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// Delay is slept before handling each request, simulating network RTT
	// for topology experiments. Zero for production use.
	Delay time.Duration

	// Requests counts request frames dispatched; Errors counts handler
	// failures (including unknown methods and panics) and failed response
	// writes. Expired counts requests answered with a deadline-exceeded
	// frame instead of being worked on (dead-on-arrival budget, or a
	// handler that bailed out with ErrDeadlineExceeded).
	Requests obs.Counter
	Errors   obs.Counter
	Expired  obs.Counter
}

// NewServer returns a server with no handlers.
func NewServer() *Server {
	return &Server{handlers: make(map[string]handlerEntry), conns: make(map[net.Conn]struct{})}
}

// Handle registers a handler for method, replacing any previous one.
func (s *Server) Handle(method string, h Handler) {
	s.HandleCtx(method, func(_ Ctx, req []byte) ([]byte, error) { return h(req) })
}

// HandleCtx registers a deadline- and trace-aware handler for method.
func (s *Server) HandleCtx(method string, h CtxHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{ctx: h}
}

// HandleBuf registers a buffer handler for method: the hot-path form that
// encodes its response into a server-pooled writer, so a steady-state
// response costs no per-call buffer allocation. See BufHandler for the
// ownership rules.
func (s *Server) HandleBuf(method string, h BufHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{buf: h}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting. It returns
// the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var writeMu sync.Mutex
	for {
		// Requests are read into pooled buffers: a handler only sees its
		// payload until it returns (BufHandler doc), so the buffer recycles
		// as soon as the response is framed.
		typ, id, trace, budget, method, payload, fb, err := readFramePooled(conn)
		if err != nil {
			return
		}
		if typ != frameRequest {
			putFrameBuf(fb)
			continue // ignore stray frames
		}
		// The frame carries a relative budget, not an absolute instant, so
		// the two processes need no clock agreement; the deadline is pinned
		// to this host's clock at receipt.
		var deadline time.Time
		if budget > 0 {
			deadline = time.Now().Add(time.Duration(budget))
		}
		s.mu.RLock()
		entry := s.handlers[method]
		delay := s.Delay
		s.mu.RUnlock()
		s.Requests.Inc()
		// Handle concurrently: one slow call must not head-of-line block
		// the connection.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer putFrameBuf(fb)
			if delay > 0 {
				time.Sleep(delay)
			}
			ctx := Ctx{Trace: trace, Deadline: deadline}
			var resp []byte
			var bw *codec.Writer
			var herr error
			switch {
			case ctx.Expired(time.Now()):
				// Dead on arrival: the caller has already given up, so any
				// work done here would be thrown away. Fail fast instead of
				// occupying a worker.
				herr = ErrDeadlineExceeded
			case entry.ctx == nil && entry.buf == nil:
				herr = fmt.Errorf("unknown method %q", method)
			default:
				func() {
					defer func() {
						if r := recover(); r != nil {
							herr = fmt.Errorf("handler panic: %v", r)
						}
					}()
					if entry.buf != nil {
						bw = codec.GetWriter()
						herr = entry.buf(ctx, payload, bw)
						resp = bw.Bytes()
					} else {
						resp, herr = entry.ctx(ctx, payload)
					}
				}()
			}
			if bw != nil {
				// Safe to recycle only after the response write below has
				// copied resp into its own frame buffer (deferred = after
				// the writeMu section).
				defer codec.PutWriter(bw)
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			typ, body := byte(frameResponse), resp
			var werr error
			switch {
			case errors.Is(herr, ErrDeadlineExceeded):
				// Keep the error typed across the hop: an expired frame
				// maps back to ErrDeadlineExceeded client-side.
				s.Expired.Inc()
				typ, body = frameExpired, nil
			case herr != nil:
				s.Errors.Inc()
				typ, body = frameError, []byte(herr.Error())
			case faultpoint.Dropped("rpc.server.write"):
				// Chaos hook: swallow the response, leaving the client to
				// its timeout (or retry budget).
				return
			default:
				werr = faultpoint.Inject("rpc.server.write")
			}
			if werr == nil {
				werr = writeFrame(conn, typ, id, trace, 0, "", body)
			}
			if werr != nil {
				// A failed response write would leave the peer waiting out
				// its full timeout; count it and close the connection so
				// the client's readLoop fails fast instead.
				s.Errors.Inc()
				conn.Close()
			}
		}()
	}
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, closes every connection, and waits for in-flight
// handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// frame layout:
//
//	uint32 length | byte type | uint64 id | uint64 trace | int64 budget | uint16 methodLen | method | payload
//
// trace is the request's trace ID (0 = untraced); responses echo the
// request's trace so either side can correlate without a lookup. budget is
// the caller's remaining deadline budget in nanoseconds (0 = no deadline),
// carried only on requests; the receiver pins it to its own clock, and any
// further hop is issued with the shrunken remainder.
// Frame buffers recycle through a pool on both sides of the hot path:
// writeFrame assembles every outgoing frame in one, and the server reads
// requests into one released after the handler returns. Buffers that grew
// past the cap are dropped rather than pinned.
const maxPooledFrame = 1 << 20

var frameBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getFrameBuf returns a pooled buffer resized to n bytes.
func getFrameBuf(n int) *[]byte {
	fb := frameBufs.Get().(*[]byte)
	b := *fb
	if cap(b) < n {
		b = make([]byte, n)
	}
	*fb = b[:n]
	return fb
}

// putFrameBuf recycles a buffer from getFrameBuf. nil is a no-op.
func putFrameBuf(fb *[]byte) {
	if fb == nil || cap(*fb) > maxPooledFrame {
		return
	}
	frameBufs.Put(fb)
}

//lint:hotpath
func writeFrame(w io.Writer, typ byte, id, trace uint64, budget int64, method string, payload []byte) error {
	if len(method) > 0xffff {
		return errMethodTooLong
	}
	if budget < 0 {
		budget = 0
	}
	total := 1 + 8 + 8 + 8 + 2 + len(method) + len(payload)
	if total > maxFrame {
		return frameTooBig(total)
	}
	fb := getFrameBuf(4 + total)
	buf := *fb
	binary.BigEndian.PutUint32(buf, uint32(total))
	buf[4] = typ
	binary.BigEndian.PutUint64(buf[5:], id)
	binary.BigEndian.PutUint64(buf[13:], trace)
	binary.BigEndian.PutUint64(buf[21:], uint64(budget))
	binary.BigEndian.PutUint16(buf[29:], uint16(len(method)))
	copy(buf[31:], method)
	copy(buf[31+len(method):], payload)
	_, err := w.Write(buf)
	putFrameBuf(fb)
	return err
}

// parseFrame splits a frame body (everything after the length prefix)
// into its fields. method and payload alias buf.
//
//lint:hotpath
func parseFrame(buf []byte) (typ byte, id, trace uint64, budget int64, method string, payload []byte, err error) {
	typ = buf[0]
	id = binary.BigEndian.Uint64(buf[1:])
	trace = binary.BigEndian.Uint64(buf[9:])
	budget = int64(binary.BigEndian.Uint64(buf[17:]))
	if budget < 0 {
		budget = 0
	}
	mlen := int(binary.BigEndian.Uint16(buf[25:]))
	if 27+mlen > len(buf) {
		err = errBadMethodLen
		return
	}
	method = string(buf[27 : 27+mlen])
	payload = buf[27+mlen:]
	return
}

// readFrame reads one frame into a fresh buffer. The client read loop uses
// it because response payloads escape to callers with no release point.
//
//lint:hotpath
func readFrame(r io.Reader) (typ byte, id, trace uint64, budget int64, method string, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total < 27 || total > maxFrame {
		err = badFrameLen(total)
		return
	}
	buf := make([]byte, total)
	if _, err = io.ReadFull(r, buf); err != nil {
		return
	}
	return parseFrame(buf)
}

// readFramePooled reads one frame into a pooled buffer. method and
// payload alias the buffer, which stays live until the caller releases fb
// with putFrameBuf; fb is nil (nothing to release) on error.
//
//lint:hotpath
func readFramePooled(r io.Reader) (typ byte, id, trace uint64, budget int64, method string, payload []byte, fb *[]byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total < 27 || total > maxFrame {
		err = badFrameLen(total)
		return
	}
	fb = getFrameBuf(int(total))
	if _, err = io.ReadFull(r, *fb); err != nil {
		putFrameBuf(fb)
		fb = nil
		return
	}
	typ, id, trace, budget, method, payload, err = parseFrame(*fb)
	if err != nil {
		putFrameBuf(fb)
		fb = nil
	}
	return
}

// Cold frame errors, hoisted/outlined so the hot frame functions do not
// allocate on the success path (//lint:hotpath discipline).
var (
	errMethodTooLong = errors.New("rpc: method name too long")
	errBadMethodLen  = errors.New("rpc: bad method length")
)

func frameTooBig(n int) error    { return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n) }
func badFrameLen(n uint32) error { return fmt.Errorf("rpc: bad frame length %d", n) }

// Options configures a client built by DialOpts. The zero value reproduces
// Dial's behaviour (single connection, no retries).
type Options struct {
	// Reconnect makes the client self-healing: it dials lazily, and when a
	// connection drops it re-dials on the next call with jittered
	// exponential backoff between consecutive failed attempts. DialOpts
	// with Reconnect never fails at construction — the target being down
	// at boot is just the first outage to heal.
	Reconnect bool

	// RetryBudget is how many times a single Call is re-issued after a
	// transport failure (broken connection, failed dial). Remote handler
	// errors, timeouts, and ErrClosed are never retried. Only enable
	// retries for idempotent methods; with at-least-once semantics a
	// retried call may execute twice on the server. Requires Reconnect.
	RetryBudget int

	// BackoffBase and BackoffMax bound the reconnect backoff: attempt n
	// (counting consecutive failures) waits a uniformly jittered duration
	// in [b/2, b] where b = min(BackoffBase<<(n-1), BackoffMax).
	// Defaults: 20ms base, 2s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed seeds the jitter source, making backoff sequences reproducible
	// in tests. Zero means seed 1.
	Seed int64

	// Clock paces dial attempts (time already elapsed since the previous
	// attempt is credited against the backoff wait). Defaults to the wall
	// clock; tests inject a fake.
	Clock clock.Clock

	// Sleep performs the backoff wait. Defaults to time.Sleep; tests
	// inject a recorder to assert the backoff sequence without waiting.
	Sleep func(time.Duration)
}

func (o *Options) fillDefaults() {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 20 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = clock.Wall()
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
}

// Client is a multiplexed RPC client. In the default (Dial) mode it owns
// one TCP connection for its lifetime; in reconnect mode (DialOpts with
// Options.Reconnect) the connection is re-established on demand and calls
// may be retried within Options.RetryBudget.
type Client struct {
	addr string
	opts Options

	writeMu sync.Mutex
	mu      sync.Mutex // guards pending
	pending map[uint64]pendingCall
	nextID  atomic.Uint64
	closed  atomic.Bool

	// connMu guards the connection lifecycle state below.
	connMu   sync.Mutex
	conn     net.Conn
	gen      uint64       // bumped per established connection
	connErr  error        // why the last connection died (non-reconnect mode)
	dialing  *dialAttempt // the dial in flight, nil when none
	failures int          // consecutive failed dial attempts
	lastDial time.Time
	everConn bool
	rng      *rand.Rand

	// Delay is slept inside every Call, simulating network RTT.
	Delay time.Duration

	// Calls counts calls issued.
	Calls obs.Counter

	// Reconnects counts successful re-dials after a connection loss;
	// Retries counts per-call retry attempts; DialFailures counts failed
	// dial attempts. The process-wide rpc.reconnects / rpc.retries /
	// rpc.dial_failures are sums of these over every client.
	Reconnects   obs.Counter
	Retries      obs.Counter
	DialFailures obs.Counter
}

type pendingCall struct {
	ch  chan result
	gen uint64
}

type result struct {
	payload []byte
	err     error
}

// Dial connects to a server with the classic single-connection contract:
// the dial happens eagerly (and its error is returned), and once the
// connection drops every future call fails.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, Options{})
}

// DialOpts connects to a server with explicit Options. Without
// Options.Reconnect it behaves exactly like Dial. With Reconnect the
// client is returned immediately and connects lazily, so it never fails
// at construction.
func DialOpts(addr string, opts Options) (*Client, error) {
	opts.fillDefaults()
	c := &Client{
		addr:    addr,
		opts:    opts,
		pending: make(map[uint64]pendingCall),
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}
	clientsMu.Lock()
	openClients[c] = struct{}{}
	clientsMu.Unlock()
	if !opts.Reconnect {
		if _, _, err := c.getConn(); err != nil {
			c.Close() // folds the failed dial into the process totals
			return nil, err
		}
	}
	return c, nil
}

// dialAttempt is one redial and its outcome; err is written before done
// closes.
type dialAttempt struct {
	done chan struct{}
	err  error
}

// getConn returns the live connection, dialing if necessary (reconnect
// mode) or surfacing why there is none (single-connection mode). Exactly
// one caller dials at a time; concurrent callers wait for its outcome and
// share it — a failed dial fails them all, instead of each redialing in
// turn behind a growing backoff while the peer stays down.
func (c *Client) getConn() (net.Conn, uint64, error) {
	for {
		if c.closed.Load() {
			return nil, 0, ErrClosed
		}
		c.connMu.Lock()
		if c.conn != nil {
			conn, gen := c.conn, c.gen
			c.connMu.Unlock()
			return conn, gen, nil
		}
		if c.everConn && !c.opts.Reconnect {
			err := c.connErr
			c.connMu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return nil, 0, err
		}
		if a := c.dialing; a != nil {
			c.connMu.Unlock()
			<-a.done
			if a.err != nil {
				return nil, 0, a.err
			}
			continue
		}
		attempt := &dialAttempt{done: make(chan struct{})}
		c.dialing = attempt
		var wait time.Duration
		if c.failures > 0 {
			wait = c.backoffLocked(c.failures)
			if elapsed := c.opts.Clock.Now().Sub(c.lastDial); elapsed > 0 {
				wait -= elapsed
			}
		}
		c.connMu.Unlock()

		if wait > 0 {
			c.opts.Sleep(wait)
		}
		err := faultpoint.Inject("rpc.dial")
		var conn net.Conn
		if err == nil {
			conn, err = net.Dial("tcp", c.addr)
		}

		c.connMu.Lock()
		c.dialing = nil
		attempt.err = err
		close(attempt.done)
		c.lastDial = c.opts.Clock.Now()
		if c.closed.Load() {
			c.connMu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return nil, 0, ErrClosed
		}
		if err != nil {
			c.failures++
			c.connMu.Unlock()
			c.DialFailures.Inc()
			return nil, 0, err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		if c.everConn {
			c.Reconnects.Inc()
		}
		c.everConn = true
		c.failures = 0
		c.conn = conn
		c.gen++
		gen := c.gen
		c.connMu.Unlock()
		//lint:allow goroutinestop reason=readLoop exits when its connection closes: Close() and reconnection both tear down conn, which unblocks readFrame with an error
		go c.readLoop(conn, gen)
		return conn, gen, nil
	}
}

// backoffLocked returns the jittered wait before the next dial attempt
// after `failures` consecutive failed attempts. Callers hold connMu (the
// jitter source is not otherwise synchronized).
func (c *Client) backoffLocked(failures int) time.Duration {
	d := c.opts.BackoffBase
	for i := 1; i < failures; i++ {
		d <<= 1
		if d >= c.opts.BackoffMax || d <= 0 {
			d = c.opts.BackoffMax
			break
		}
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	// Uniform jitter in [d/2, d] decorrelates reconnect storms when many
	// workers lose the same broker at once.
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

func (c *Client) readLoop(conn net.Conn, gen uint64) {
	for {
		typ, id, _, _, _, payload, err := readFrame(conn)
		if err == nil {
			// Response-read boundary: lets chaos tests kill a connection
			// between the server's write and the client's decode, which is
			// the window the reconnect/retry path has to survive.
			err = faultpoint.Inject("rpc.client.read")
		}
		if err != nil {
			c.dropConn(conn, gen, err)
			return
		}
		var res result
		switch typ {
		case frameError:
			res = result{err: &RemoteError{Msg: string(payload)}}
		case frameExpired:
			res = result{err: ErrDeadlineExceeded}
		default:
			res = result{payload: payload}
		}
		c.mu.Lock()
		pc, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			pc.ch <- res
		}
	}
}

// dropConn retires a dead connection: closes it, detaches it from the
// client if it is still current, and fails every call in flight on it.
func (c *Client) dropConn(conn net.Conn, gen uint64, err error) {
	conn.Close()
	c.connMu.Lock()
	if c.gen == gen && c.conn == conn {
		c.conn = nil
		c.connErr = err
	}
	c.connMu.Unlock()
	c.failGen(gen, err)
}

// failGen fails every pending call registered on connection generations
// up to and including gen. Calls on newer connections are untouched.
func (c *Client) failGen(gen uint64, err error) {
	if c.closed.Load() {
		err = ErrClosed
	}
	// Detach matching entries under the lock, deliver after releasing it:
	// each result channel is buffered so the sends cannot block, but
	// holding a mutex across channel sends is the pattern the
	// lockacrossblock analyzer bans, and the detached form needs no
	// exemption.
	c.mu.Lock()
	var detached []chan result
	for id, pc := range c.pending {
		if pc.gen <= gen {
			delete(c.pending, id)
			detached = append(detached, pc.ch)
		}
	}
	c.mu.Unlock()
	for _, ch := range detached {
		ch <- result{err: err}
	}
}

// Call invokes method with payload req and waits up to timeout for the
// response (0 means wait forever).
func (c *Client) Call(method string, req []byte, timeout time.Duration) ([]byte, error) {
	return c.CallTraced(method, 0, req, timeout)
}

// CallTraced is Call with a trace ID carried in the frame header, so the
// remote handler (Ctx.Trace) can tag its spans with the caller's trace.
// In reconnect mode, transport failures are retried up to
// Options.RetryBudget times; timeout is a total budget across attempts —
// each retry gets only what remains, and a call whose budget ran out during
// backoff fails with ErrDeadlineExceeded instead of being re-issued.
func (c *Client) CallTraced(method string, trace uint64, req []byte, timeout time.Duration) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.Calls.Inc()
	if c.Delay > 0 {
		time.Sleep(c.Delay)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		remaining := timeout
		if !deadline.IsZero() {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				if lastErr == nil {
					lastErr = ErrDeadlineExceeded
				}
				break
			}
		}
		payload, err := c.callOnce(method, trace, req, remaining)
		if err == nil {
			return payload, nil
		}
		lastErr = err
		if !retryable(err) || attempt >= c.opts.RetryBudget || c.closed.Load() {
			break
		}
		c.Retries.Inc()
	}
	return nil, lastErr
}

// retryable reports whether err is a transport-level failure worth
// re-issuing the call for. Handler errors already executed remotely,
// expired deadlines are gone no matter what, and ErrClosed is final — none
// retry.
func retryable(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrClosed)
}

// callOnce runs a single request/response exchange on the current (or
// freshly dialed) connection. timeout doubles as the deadline budget
// carried in the request frame, so the server can fail fast once the
// caller has given up.
func (c *Client) callOnce(method string, trace uint64, req []byte, timeout time.Duration) ([]byte, error) {
	conn, gen, err := c.getConn()
	if err != nil {
		return nil, err
	}
	id := c.nextID.Add(1)
	ch := make(chan result, 1)
	c.mu.Lock()
	c.pending[id] = pendingCall{ch: ch, gen: gen}
	c.mu.Unlock()

	c.writeMu.Lock()
	err = faultpoint.Inject("rpc.client.write")
	if err == nil {
		err = writeFrame(conn, frameRequest, id, trace, int64(timeout), method, req)
	}
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// Retire the connection so the next attempt re-dials instead of
		// re-hitting the same broken pipe.
		c.dropConn(conn, gen, err)
		return nil, err
	}

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case res := <-ch:
		return res.payload, res.err
	case <-timer:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ErrTimeout
	}
}

// Close tears the client down; in-flight calls fail with ErrClosed and a
// reconnecting client stops re-dialing.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	clientsMu.Lock()
	delete(openClients, c)
	for i, n := range c.transport() {
		closedTransport[i] += n
	}
	clientsMu.Unlock()
	c.connMu.Lock()
	conn := c.conn
	c.conn = nil
	c.connMu.Unlock()
	if conn != nil {
		conn.Close()
	}
	// Defensive sweep for calls registered in the close window; normal
	// teardown already fails them via the readLoop's dropConn.
	c.failGen(^uint64(0), ErrClosed)
	return nil
}
