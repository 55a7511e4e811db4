// Package rpc is the length-framed binary RPC layer connecting Helios
// processes: the frontend to serving workers, workers to the coordinator,
// and the distributed graphdb baseline's partitions to each other. It is a
// minimal multiplexed request/response protocol over TCP — one connection
// carries any number of concurrent calls correlated by request ID.
//
// A server serves every method one way (Server.HandleBuf): the handler runs
// on the connection's read loop. One that must wait — on an actor, on a
// partition's data, on a replication quorum — first takes what it needs out
// of its request, then returns Park(wait); the server runs wait on a
// goroutine of its own and answers when it returns. A stream pushes through
// Ctx.Push. Server.Handle adapts a plain func(req) (resp, error): it copies
// the request and parks.
//
// Every client heals itself: it dials on demand, re-establishes a dropped
// connection with jittered exponential backoff, and (with a RetryBudget)
// transparently retries calls that hit transport failures. That is what
// lets the §4.1 replay story hold end to end: a broker restart is a pause,
// not a permanent wedge, for every RemoteBroker-backed worker.
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

	"helios/internal/actor"
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

// Ctx carries the per-request frame metadata a handler may care about: the
// caller's trace ID (0 = untraced) and the absolute deadline derived from
// the frame's budget field (zero time = no deadline). A server's Ctx also
// names the request it came with, for Push.
type Ctx struct {
	Trace    uint64
	Deadline time.Time

	sc *serverConn
	id uint64
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

// Push sends payload to the caller as one pushed frame of a stream
// (Client.OpenStream), ahead of the reply the handler ends the stream with.
// It fails once the connection is gone, and does not retain payload.
func (c Ctx) Push(payload []byte) error {
	return c.sc.write(frameStream, c.id, c.Trace, payload, true)
}

// BufHandler is the one handler form. It runs on the connection's read
// loop and encodes its reply into resp, a pooled writer the server owns: the
// server frames and recycles it once the reply is written, so the handler
// must not retain resp (or anything aliasing its bytes) past its answer. req
// aliases the connection's read buffer and is valid until the handler
// returns: a handler that must wait takes what it needs out of req, then
// returns Park.
type BufHandler func(ctx Ctx, req []byte, resp *codec.Writer) error

// parked is a wait a handler hands the server through Park. A func is one
// word, so Park allocates nothing of its own.
type parked func() error

func (parked) Error() string { return "rpc: parked" }

// Park is what a handler returns to wait off the read loop: the server runs
// wait on a goroutine of its own and answers the request with wait's error,
// or with what wait wrote into resp. A wait that would start past the
// request's deadline is not run; the caller is answered ErrDeadlineExceeded.
func Park(wait func() error) error { return parked(wait) }

// Server serves registered handlers over TCP.
type Server struct {
	// handlers is copy-on-write: a read loop looks a method up with one
	// atomic load, registration (rare) copies the table under mu.
	handlers atomic.Pointer[map[string]BufHandler]
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// Requests counts request frames dispatched; Errors counts handler
	// failures (including unknown methods and panics) and failed response
	// writes. Expired counts requests answered with a deadline-exceeded
	// frame: a parked wait that would have started past its deadline, or a
	// handler that bailed out with ErrDeadlineExceeded.
	Requests obs.Counter
	Errors   obs.Counter
	Expired  obs.Counter
}

// NewServer returns a server with no handlers.
func NewServer() *Server {
	s := &Server{conns: make(map[net.Conn]struct{})}
	s.handlers.Store(&map[string]BufHandler{})
	return s
}

// HandleBuf registers h for method, replacing any previous handler. See
// BufHandler for what runs where and who owns which bytes.
func (s *Server) HandleBuf(method string, h BufHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := map[string]BufHandler{method: h}
	for m, old := range *s.handlers.Load() {
		if m != method {
			next[m] = old
		}
	}
	s.handlers.Store(&next)
}

// Handle registers h for method in the one form: the request is copied
// into a pooled buffer and h runs parked, so it may block.
func (s *Server) Handle(method string, h func(req []byte) ([]byte, error)) {
	s.HandleBuf(method, func(_ Ctx, req []byte, resp *codec.Writer) error {
		held := codec.GetWriter()
		held.Raw(req)
		return Park(func() error {
			defer codec.PutWriter(held)
			out, err := h(held.Bytes())
			resp.Raw(out)
			return err
		})
	})
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

// dispatch runs f's handler on the read loop. Its reply waits for the
// loop's next flush, unless it parked: then the wait runs on a goroutine of
// its own, so a call that waits never head-of-line blocks the connection.
//
//lint:hotpath
func (sc *serverConn) dispatch(f frame) {
	s := sc.s
	// The budget is relative: the deadline is pinned to this host's clock.
	ctx := Ctx{Trace: f.trace, sc: sc, id: f.id}
	if f.budget > 0 {
		ctx.Deadline = time.Now().Add(time.Duration(f.budget))
	}
	h, known := (*s.handlers.Load())[string(f.method)]
	s.Requests.Inc()
	if !known {
		sc.answer(ctx, nil, unknownMethod(f.method), true)
		return
	}
	resp := codec.GetWriter()
	err := serveInline(h, ctx, f.payload, resp)
	if wait, ok := err.(parked); ok {
		p := parkedCalls.Get().(*parkedCall)
		if p.run == nil {
			p.run = p.serve
		}
		p.ctx, p.wait, p.resp = ctx, wait, resp
		s.wg.Add(1)
		go p.run()
		return
	}
	sc.answer(ctx, resp, err, false)
}

// serveInline runs h on the read loop, a panic becoming its error.
func serveInline(h BufHandler, ctx Ctx, req []byte, resp *codec.Writer) (err error) {
	defer recovered(&err)
	return h(ctx, req, resp)
}

// recovered turns a handler's panic into its error. It is the deferred
// function itself, so its recover sees the panic.
func recovered(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("handler panic: %v", r)
	}
}

// parkedCall is one parked wait on its way to a goroutine. It is pooled and
// its run is bound once, so starting the goroutine allocates nothing.
type parkedCall struct {
	ctx  Ctx
	wait parked
	resp *codec.Writer
	run  func()
}

var parkedCalls = sync.Pool{New: func() any { return new(parkedCall) }}

// serve runs the wait, unless the caller has already given up on it, and
// writes the answer at once.
func (p *parkedCall) serve() {
	ctx, wait, resp := p.ctx, p.wait, p.resp
	p.ctx, p.wait, p.resp = Ctx{}, nil, nil
	parkedCalls.Put(p)
	defer ctx.sc.s.wg.Done()
	err := ErrDeadlineExceeded // work done past the deadline would be thrown away
	if !ctx.Expired(time.Now()) {
		err = wait.serve()
	}
	ctx.sc.answer(ctx, resp, err, true)
}

// serve runs the wait, a panic becoming its error.
func (w parked) serve() (err error) {
	defer recovered(&err)
	return w()
}

// answer queues a handler's reply, resp's bytes, and writes it at once when
// flush is set. An error is written at once, a deadline error kept typed
// across the hop: an expired frame maps back to ErrDeadlineExceeded
// client-side. resp goes back to its pool: the reply has been copied into
// the out buffer.
func (sc *serverConn) answer(ctx Ctx, resp *codec.Writer, err error, flush bool) {
	switch {
	case err == nil:
		sc.write(frameResponse, ctx.id, ctx.Trace, resp.Bytes(), flush)
	case errors.Is(err, ErrDeadlineExceeded):
		sc.s.Expired.Inc()
		sc.write(frameExpired, ctx.id, ctx.Trace, nil, true)
	default:
		sc.s.Errors.Inc()
		sc.write(frameError, ctx.id, ctx.Trace, []byte(err.Error()), true)
	}
	codec.PutWriter(resp)
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
			serverWrites.Add(1)
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

var serverWrites, clientWrites atomic.Uint64 // see SocketWrites

// SocketWrites reports this process's socket writes, by servers flushing
// replies and by clients writing requests: a test ledger row, not a series.
func SocketWrites() (server, client uint64) { return serverWrites.Load(), clientWrites.Load() }

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

// Options configures a client built by DialOpts. The zero value makes no
// retries.
type Options struct {
	// RetryBudget is how many times a single Call is re-issued after a
	// transport failure (broken connection, failed dial). Remote handler
	// errors, timeouts, and ErrClosed are never retried. Only enable
	// retries for idempotent methods; with at-least-once semantics a
	// retried call may execute twice on the server.
	RetryBudget int

	// BackoffMax bounds the reconnect backoff: attempt n (counting
	// consecutive failures) waits a uniformly jittered duration in
	// [b/2, b] where b = min(backoffBase<<(n-1), BackoffMax). Default 2s.
	BackoffMax time.Duration

	// Seed seeds the jitter source, making backoff sequences reproducible
	// in tests. Zero means seed 1.
	Seed int64

	// Clock paces dial attempts (time already elapsed since the previous
	// attempt is credited against the backoff wait). Defaults to the wall
	// clock; tests inject a fake.
	Clock clock.Clock

	// Sleep performs the backoff wait. Defaults to a wait that Close ends;
	// tests inject a recorder to assert the backoff sequence without
	// waiting.
	Sleep func(time.Duration)
}

// backoffBase is the wait before the first redial after a failed one.
const backoffBase = 20 * time.Millisecond

func (o *Options) fillDefaults() {
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = clock.Wall()
	}
}

// Client is a multiplexed RPC client over one TCP connection at a time: a
// dropped connection is re-established on demand, and calls may be retried
// within Options.RetryBudget.
type Client struct {
	addr string
	opts Options

	writeMu sync.Mutex // guards wbuf and orders socket writes
	wbuf    []byte
	mu      sync.Mutex // guards pending
	pending map[uint64]pendingCall
	nextID  atomic.Uint64
	closed  atomic.Bool
	done    chan struct{} // closed by Close; ends a backoff wait

	// connMu guards the connection lifecycle state below.
	connMu   sync.Mutex
	conn     net.Conn
	gen      uint64       // bumped per established connection
	dialing  *dialAttempt // the dial in flight, nil when none
	failures int          // consecutive failed dial attempts
	dialErr  error        // the last failed dial's error
	lastDial time.Time
	rng      *rand.Rand

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

// Dial connects to a server now and returns the dial's error; the client
// heals like any other once connected.
func Dial(addr string) (*Client, error) {
	c := DialOpts(addr, Options{})
	if _, _, err := c.getConn(0); err != nil {
		c.Close() // folds the failed dial into the process totals
		return nil, err
	}
	return c, nil
}

// DialOpts returns a client for addr with explicit Options. It connects
// lazily, so it never fails at construction: the target being down at boot
// is just the first outage to heal.
func DialOpts(addr string, opts Options) *Client {
	opts.fillDefaults()
	c := &Client{
		addr:    addr,
		opts:    opts,
		pending: make(map[uint64]pendingCall),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		done:    make(chan struct{}),
	}
	if c.opts.Sleep == nil {
		c.opts.Sleep = func(d time.Duration) { actor.Sleep(c.done, d) }
	}
	clientsMu.Lock()
	openClients[c] = struct{}{}
	clientsMu.Unlock()
	return c
}

// dialAttempt is one redial and its outcome; err is written before done
// closes.
type dialAttempt struct {
	done chan struct{}
	err  error
}

// getConn returns the live connection, dialing if there is none. Exactly
// one caller dials at a time; concurrent callers wait for its outcome and
// share it — a failed dial fails them all, instead of each redialing in
// turn behind a growing backoff while the peer stays down. A caller whose
// budget (0: none) ends before the next redial is due fails at once with
// the last dial's error rather than sleeping past its budget.
func (c *Client) getConn(budget time.Duration) (net.Conn, uint64, error) {
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
		if a := c.dialing; a != nil {
			c.connMu.Unlock()
			<-a.done
			if a.err != nil {
				return nil, 0, a.err
			}
			continue
		}
		var wait time.Duration
		if c.failures > 0 {
			wait = c.backoffLocked(c.failures)
			if elapsed := c.opts.Clock.Now().Sub(c.lastDial); elapsed > 0 {
				wait -= elapsed
			}
		}
		if budget > 0 && budget < wait {
			err := c.dialErr
			c.connMu.Unlock()
			return nil, 0, err
		}
		attempt := &dialAttempt{done: make(chan struct{})}
		c.dialing = attempt
		c.connMu.Unlock()

		if wait > 0 {
			c.opts.Sleep(wait)
		}
		err := faultpoint.Inject("rpc.dial")
		var conn net.Conn
		if err == nil && !c.closed.Load() {
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
			c.dialErr = err
			c.connMu.Unlock()
			c.DialFailures.Inc()
			return nil, 0, err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		if c.gen > 0 {
			c.Reconnects.Inc()
		}
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
	d := min(backoffBase<<min(failures-1, 30), c.opts.BackoffMax) // 30 doublings cannot overflow
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
// Transport failures are retried up to Options.RetryBudget times; timeout is a total budget across attempts —
// each retry gets only what remains, and a call whose budget ran out during
// backoff fails with ErrDeadlineExceeded instead of being re-issued.
func (c *Client) CallTraced(method string, trace uint64, req []byte, timeout time.Duration) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.Calls.Inc()
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
	conn, gen, err := c.getConn(budget)
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
			clientWrites.Add(1)
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

// OpenStream sends req to a method that pushes (Ctx.Push) at most window
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

// Close tears the client down; in-flight calls fail with ErrClosed, a
// redial backoff in progress ends, and the client stops re-dialing.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.done)
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
