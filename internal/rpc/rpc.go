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

// ErrEndOfStream is what Stream.Recv returns once the server has ended the
// stream cleanly. It is not io.EOF, which is what a peer closing the
// connection under a stream looks like.
var ErrEndOfStream = errors.New("rpc: end of stream")

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
	// frameStream carries one pushed payload of a server-streaming call; the
	// call's response, error or expired frame ends the stream.
	frameStream = 4

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

// StreamHandler is the server-streaming form: push sends one payload to the
// caller, ahead of the reply the handler's return ends the stream with, and
// fails once the connection is gone. push does not retain its argument.
type StreamHandler func(ctx Ctx, req []byte, push func(payload []byte) error) error

// handlerEntry holds one registered handler in exactly one of its forms.
type handlerEntry struct {
	ctx    CtxHandler
	buf    BufHandler
	stream StreamHandler
	inline func() bool // set: buf runs on the read loop while it reports true
}

// Server serves registered handlers over TCP.
type Server struct {
	// handlers is copy-on-write: a read loop looks a method up with one
	// atomic load, registration (rare) copies the table under mu.
	handlers atomic.Pointer[map[string]handlerEntry]
	mu       sync.Mutex
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
	s := &Server{conns: make(map[net.Conn]struct{})}
	s.handlers.Store(&map[string]handlerEntry{})
	return s
}

func (s *Server) register(method string, e handlerEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := map[string]handlerEntry{method: e}
	for m, old := range *s.handlers.Load() {
		if m != method {
			next[m] = old
		}
	}
	s.handlers.Store(&next)
}

// Handle registers a handler for method, replacing any previous one.
func (s *Server) Handle(method string, h Handler) {
	s.HandleCtx(method, func(_ Ctx, req []byte) ([]byte, error) { return h(req) })
}

// HandleCtx registers a deadline- and trace-aware handler for method.
func (s *Server) HandleCtx(method string, h CtxHandler) { s.register(method, handlerEntry{ctx: h}) }

// HandleBuf registers a buffer handler for method: the hot-path form that
// encodes its response into a server-pooled writer, so a steady-state
// response costs no per-call buffer allocation. See BufHandler for the
// ownership rules.
func (s *Server) HandleBuf(method string, h BufHandler) { s.register(method, handlerEntry{buf: h}) }

// HandleInline registers a buffer handler that never parks — no queue,
// quorum or downstream wait — to run on the connection's read loop while ok
// (required) reports true: no goroutine, no copy of the request, and its reply leaves
// with those of every request already buffered. A call ok refuses, and every
// call on a server with Delay set, runs like HandleBuf's.
func (s *Server) HandleInline(method string, ok func() bool, h BufHandler) {
	s.register(method, handlerEntry{buf: h, inline: ok})
}

// HandleStream registers a server-streaming handler for method; the other
// end is Client.OpenStream.
func (s *Server) HandleStream(method string, h StreamHandler) {
	s.register(method, handlerEntry{stream: h})
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

// serverConn is one accepted connection and the replies queued on it.
type serverConn struct {
	s    *Server
	conn net.Conn
	mu   sync.Mutex // guards out and orders socket writes
	out  []byte
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sc := &serverConn{s: s, conn: conn}
	fr := frameReader{r: conn}
	for {
		// The drain rule at the socket: inline replies leave in one write
		// when the next read would block, never later.
		if !fr.buffered() {
			sc.mu.Lock()
			sc.flushLocked()
			sc.mu.Unlock()
		}
		f, err := fr.next()
		if err != nil || faultpoint.Inject("rpc.server.read") != nil {
			return // the deferred close fails the peer's calls fast
		}
		if f.typ == frameRequest { // anything else is a stray frame
			sc.dispatch(f)
		}
	}
}

// dispatch runs f's handler on the read loop if it is registered inline,
// and otherwise on its own goroutine, so a call that parks never
// head-of-line blocks the connection.
//
//lint:hotpath
func (sc *serverConn) dispatch(f frame) {
	s := sc.s
	// The budget is relative: the deadline is pinned to this host's clock.
	ctx := Ctx{Trace: f.trace}
	if f.budget > 0 {
		ctx.Deadline = time.Now().Add(time.Duration(f.budget))
	}
	e, known := (*s.handlers.Load())[string(f.method)]
	s.Requests.Inc()
	if !known {
		sc.fail(f.id, f.trace, unknownMethod(f.method))
		return
	}
	if e.inline != nil && s.Delay == 0 && e.inline() {
		sc.serve(e, ctx, f.id, f.payload, nil)
		return
	}
	req := codec.GetWriter() // the read buffer moves on under a concurrent call
	req.Raw(f.payload)
	s.wg.Add(1)
	go sc.serve(e, ctx, f.id, req.Bytes(), req)
}

// serve runs one request's handler and queues its reply: for the read
// loop's next flush when held is nil, written at once for a concurrent call,
// which holds its copy of the request there.
func (sc *serverConn) serve(e handlerEntry, ctx Ctx, id uint64, req []byte, held *codec.Writer) {
	var resp []byte
	var err error
	var bw *codec.Writer
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
		}
		if err != nil {
			sc.fail(id, ctx.Trace, err)
		} else {
			sc.write(frameResponse, id, ctx.Trace, resp, held != nil)
		}
		// Recycled only now: the reply has been copied into the out buffer.
		codec.PutWriter(bw)
		if held != nil {
			codec.PutWriter(held)
			sc.s.wg.Done()
		}
	}()
	if held != nil && sc.s.Delay > 0 {
		time.Sleep(sc.s.Delay)
	}
	switch {
	case !ctx.Deadline.IsZero() && ctx.Expired(time.Now()):
		// Dead on arrival: the caller has already given up, so any work
		// done here would be thrown away.
		err = ErrDeadlineExceeded
	case e.buf != nil:
		bw = codec.GetWriter()
		err = e.buf(ctx, req, bw)
		resp = bw.Bytes()
	case e.stream != nil:
		err = e.stream(ctx, req, func(p []byte) error { return sc.write(frameStream, id, ctx.Trace, p, true) })
	default:
		resp, err = e.ctx(ctx, req)
	}
}

// fail answers a request with err, keeping a deadline error typed across
// the hop: an expired frame maps back to ErrDeadlineExceeded client-side.
func (sc *serverConn) fail(id, trace uint64, err error) {
	if errors.Is(err, ErrDeadlineExceeded) {
		sc.s.Expired.Inc()
		sc.write(frameExpired, id, trace, nil, true)
		return
	}
	sc.s.Errors.Inc()
	sc.write(frameError, id, trace, []byte(err.Error()), true)
}

// write queues one frame and, when flush is set, writes every queued one.
// The error is the connection's: after one failed write all later ones fail.
//
//lint:hotpath
func (sc *serverConn) write(typ byte, id, trace uint64, body []byte, flush bool) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var err error
	if sc.out, err = appendFrame(sc.out, typ, id, trace, 0, "", body); err == nil && flush {
		err = sc.flushLocked()
	}
	return err
}

// flushLocked writes the queued frames in one socket write. Callers hold
// sc.mu.
func (sc *serverConn) flushLocked() error {
	if len(sc.out) == 0 {
		return nil
	}
	var err error
	// Chaos hook: a drop swallows the replies, leaving the clients to their
	// timeouts (or retry budgets).
	if !faultpoint.Dropped("rpc.server.write") {
		if err = faultpoint.Inject("rpc.server.write"); err == nil {
			_, err = sc.conn.Write(sc.out)
		}
	}
	if sc.out = sc.out[:0]; cap(sc.out) > maxIdleBuf {
		sc.out = nil
	}
	if err != nil {
		// A failed write would leave the peer waiting out its timeout;
		// count it and close so the client's readLoop fails fast instead.
		sc.s.Errors.Inc()
		sc.conn.Close()
	}
	return err
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
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
//
// Each end of a connection owns a read buffer and a write buffer. They
// start at readBufSize and keep what a larger frame grew them to, up to
// maxIdleBuf: one grown past that is dropped as soon as it drains.
const (
	readBufSize = 4 << 10
	maxIdleBuf  = 1 << 20
)

//lint:hotpath
func appendFrame(dst []byte, typ byte, id, trace uint64, budget int64, method string, payload []byte) ([]byte, error) {
	if len(method) > 0xffff {
		return dst, errMethodTooLong
	}
	if budget < 0 {
		budget = 0
	}
	total := 27 + len(method) + len(payload)
	if total > maxFrame {
		return dst, frameTooBig(total)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, trace)
	dst = binary.BigEndian.AppendUint64(dst, uint64(budget))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(method)))
	dst = append(dst, method...)
	return append(dst, payload...), nil
}

// frame is one parsed frame. method and payload alias the connection's
// read buffer and are valid until the following next.
type frame struct {
	typ             byte
	id, trace       uint64
	budget          int64
	method, payload []byte
}

// frameReader is a connection's one buffered reader. Frames are parsed in
// place: a socket read delivers every frame that arrived with it.
type frameReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int // buf[lo:hi] is read and not yet consumed
}

// buffered reports whether next would return without reading the socket.
func (fr *frameReader) buffered() bool {
	have := fr.hi - fr.lo
	return have >= 4 && have-4 >= int(binary.BigEndian.Uint32(fr.buf[fr.lo:]))
}

// next returns the next frame, reading the socket only when the buffer
// does not already hold all of it.
//
//lint:hotpath
func (fr *frameReader) next() (f frame, err error) {
	need := 4 // wire bytes of the frame at buf[lo:], once its prefix is in
	for have := fr.hi - fr.lo; have < need || need == 4; have = fr.hi - fr.lo {
		if need == 4 && have >= 4 {
			total := binary.BigEndian.Uint32(fr.buf[fr.lo:])
			if total < 27 || total > maxFrame {
				return f, badFrameLen(total)
			}
			need += int(total)
		} else if err = fr.fill(need); err != nil {
			return f, err
		}
	}
	b := fr.buf[fr.lo+4 : fr.lo+need]
	fr.lo += need
	mlen := int(binary.BigEndian.Uint16(b[25:]))
	if 27+mlen > len(b) {
		return f, errBadMethodLen
	}
	f = frame{
		typ: b[0], id: binary.BigEndian.Uint64(b[1:]), trace: binary.BigEndian.Uint64(b[9:]),
		budget: int64(binary.BigEndian.Uint64(b[17:])), method: b[27 : 27+mlen], payload: b[27+mlen:],
	}
	if f.budget < 0 {
		f.budget = 0
	}
	return f, nil
}

// fill makes room for need bytes at buf[lo:] and reads the socket once.
// The buffer doubles only when it is full, so it never exceeds twice the
// bytes actually received, whatever a length prefix claims.
func (fr *frameReader) fill(need int) error {
	if fr.lo == fr.hi {
		fr.lo, fr.hi = 0, 0
		if fr.buf == nil || len(fr.buf) > maxIdleBuf {
			fr.buf = make([]byte, readBufSize)
		}
	}
	if fr.lo+need > len(fr.buf) {
		fr.hi = copy(fr.buf, fr.buf[fr.lo:fr.hi])
		fr.lo = 0
		if fr.hi == len(fr.buf) {
			fr.buf = append(fr.buf, make([]byte, len(fr.buf))...)
		}
	}
	n, err := fr.r.Read(fr.buf[fr.hi:])
	fr.hi += n
	if n > 0 {
		return nil
	}
	return err
}

// Cold frame errors, hoisted/outlined so the hot frame functions do not
// allocate on the success path (//lint:hotpath discipline).
var (
	errMethodTooLong = errors.New("rpc: method name too long")
	errBadMethodLen  = errors.New("rpc: bad method length")
	errStreamOverrun = errors.New("rpc: stream pushed past its window")
)

func frameTooBig(n int) error      { return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n) }
func badFrameLen(n uint32) error   { return fmt.Errorf("rpc: bad frame length %d", n) }
func unknownMethod(m []byte) error { return fmt.Errorf("unknown method %q", m) }

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

	writeMu sync.Mutex // guards wbuf and orders socket writes
	wbuf    []byte
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
	ch  chan result // capacity 1 for a call, window+1 for a stream
	gen uint64
}

// callSlot is what one call waits on. It is pooled: a slot goes back only
// once its channel is empty and its timer can no longer fire.
type callSlot struct {
	ch    chan result
	timer *time.Timer
}

var callSlots = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &callSlot{ch: make(chan result, 1), timer: t}
}}

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
	fr := frameReader{r: conn}
	for {
		f, err := fr.next()
		if err == nil {
			// Response-read boundary: lets chaos tests kill a connection
			// between the server's write and the client's decode, which is
			// the window the reconnect/retry path has to survive.
			err = faultpoint.Inject("rpc.client.read")
		}
		if err == nil {
			err = c.deliver(f)
		}
		if err != nil {
			c.dropConn(conn, gen, err)
			return
		}
	}
}

// deliver hands one frame to the call waiting on it, copying the payload
// out of the read buffer. It never blocks: a call is sent one result, and a
// stream's channel holds its window plus, in a slot no push may take, its end.
//
//lint:hotpath
func (c *Client) deliver(f frame) error {
	c.mu.Lock()
	pc, ok := c.pending[f.id]
	if ok && f.typ != frameStream {
		delete(c.pending, f.id)
	}
	c.mu.Unlock()
	if !ok {
		return nil // the caller timed out, or abandoned the stream
	}
	var res result
	switch {
	case f.typ == frameStream && len(pc.ch) >= cap(pc.ch)-1:
		return errStreamOverrun
	case f.typ == frameError:
		res.err = &RemoteError{Msg: string(f.payload)}
	case f.typ == frameExpired:
		res.err = ErrDeadlineExceeded
	case f.typ == frameResponse && cap(pc.ch) > 1:
		res.err = ErrEndOfStream
	default:
		res.payload = append(make([]byte, 0, len(f.payload)), f.payload...)
	}
	pc.ch <- res
	return nil
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

// start registers a call under a fresh ID on the current (or freshly
// dialed) connection and writes its request frame.
func (c *Client) start(method string, trace uint64, req []byte, budget time.Duration, ch chan result) (uint64, error) {
	conn, gen, err := c.getConn()
	if err != nil {
		return 0, err
	}
	id := c.nextID.Add(1)
	c.mu.Lock()
	c.pending[id] = pendingCall{ch: ch, gen: gen}
	c.mu.Unlock()

	c.writeMu.Lock()
	if err = faultpoint.Inject("rpc.client.write"); err == nil {
		if c.wbuf, err = appendFrame(c.wbuf[:0], frameRequest, id, trace, int64(budget), method, req); err == nil {
			_, err = conn.Write(c.wbuf)
		}
		if cap(c.wbuf) > maxIdleBuf {
			c.wbuf = nil
		}
	}
	c.writeMu.Unlock()
	if err != nil {
		// Retire the connection so the next attempt re-dials instead of
		// re-hitting the same broken pipe.
		c.forget(id)
		c.dropConn(conn, gen, err)
	}
	return id, err
}

// forget withdraws a pending call and reports whether it was still
// pending: if not, a result is on its way to the call's channel.
func (c *Client) forget(id uint64) bool {
	c.mu.Lock()
	_, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return ok
}

// callOnce runs a single request/response exchange. timeout doubles as
// the deadline budget carried in the request frame, so the server can fail
// fast once the caller has given up.
func (c *Client) callOnce(method string, trace uint64, req []byte, timeout time.Duration) ([]byte, error) {
	slot := callSlots.Get().(*callSlot)
	id, err := c.start(method, trace, req, timeout, slot.ch)
	if err != nil {
		return nil, err // the slot may yet be sent the connection's error: not reused
	}
	var expired <-chan time.Time
	if timeout > 0 {
		slot.timer.Reset(timeout)
		expired = slot.timer.C
	}
	select {
	case res := <-slot.ch:
		if expired == nil || slot.timer.Stop() {
			callSlots.Put(slot)
		}
		return res.payload, res.err
	case <-expired:
		if c.forget(id) {
			callSlots.Put(slot)
		}
		return nil, ErrTimeout
	}
}

// Stream is the client end of a server-streaming call.
type Stream struct{ ch chan result }

// OpenStream sends req to a HandleStream method that pushes at most window
// payloads before it ends the stream, so the read loop can hold a whole
// stream and never waits on its consumer. A stream nobody reads goes when it
// ends, or with its connection.
func (c *Client) OpenStream(method string, req []byte, window int) (*Stream, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.Calls.Inc()
	s := &Stream{ch: make(chan result, window+1)} // room for the window and the end
	if _, err := c.start(method, 0, req, 0, s.ch); err != nil {
		return nil, err
	}
	return s, nil
}

// Recv returns the next pushed payload, or nil once wait has passed with
// none. ErrEndOfStream means the server ended the stream; any other error
// ended it too, and Recv is not called again after either. A stream has one
// reader.
func (s *Stream) Recv(wait time.Duration) ([]byte, error) {
	var expired <-chan time.Time
	if len(s.ch) == 0 { // else the receive below is ready, and needs no timer
		if wait <= 0 {
			return nil, nil
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case res := <-s.ch:
		return res.payload, res.err
	case <-expired:
		return nil, nil
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
