package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/codec"
	"helios/internal/faultpoint"
)

// countingConn counts the socket calls a connection's owner makes.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// goid identifies the calling goroutine ("goroutine 42 [running]: ...").
func goid() string {
	var buf [32]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// Ceiling for TestOneReadPerFrame; the parent, which spawned a goroutine
// and made a channel, a timer and a method string per call, measured 10.05.
const maxMallocsPerEcho = 5 // measured 1.0: the client's copy of the reply

// TestOneReadPerFrame is the transport's row of the work ledger, counted
// and not timed: N sequential 64-byte echoes through a handler that never
// parks cost each side one socket read and one socket write per call (the
// parent: two reads), every call runs on the connection's read loop, and
// the whole process allocates at most maxMallocsPerEcho times per call.
func TestOneReadPerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := NewServer()
	defer s.Close()
	var ranOn sync.Map // goroutine id -> true
	var counting atomic.Bool
	s.HandleBuf("echo", func(_ Ctx, req []byte, resp *codec.Writer) error {
		if !counting.Load() { // asking who runs the call allocates
			ranOn.Store(goid(), true)
		}
		resp.Raw(req)
		return nil
	})
	var srvConn *countingConn
	var readLoop string
	accepted := make(chan struct{})
	s.wg.Add(1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Done()
			t.Error(err)
			close(accepted)
			return
		}
		srvConn = &countingConn{Conn: conn}
		readLoop = goid()
		s.mu.Lock()
		s.conns[srvConn] = struct{}{}
		s.mu.Unlock()
		close(accepted)
		s.serveConn(srvConn)
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cliConn := &countingConn{Conn: raw}
	c := DialOpts(ln.Addr().String(), Options{}) // dials lazily: the counted connection goes in first
	defer c.Close()
	c.connMu.Lock()
	c.conn, c.gen = cliConn, 1
	c.connMu.Unlock()
	go c.readLoop(cliConn, 1)
	<-accepted

	req := make([]byte, 64)
	echo := func() {
		resp, err := c.Call("echo", req, time.Second)
		if err != nil || len(resp) != len(req) {
			t.Fatalf("echo: %d bytes, %v", len(resp), err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pools and the buffers
		echo()
	}
	const n = 1000
	reads := [2]int64{srvConn.reads.Load(), cliConn.reads.Load()}
	writes := [2]int64{srvConn.writes.Load(), cliConn.writes.Load()}
	var before, after runtime.MemStats
	counting.Store(true)
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		echo()
	}
	runtime.ReadMemStats(&after)
	counting.Store(false)
	echo()
	for i, conn := range []*countingConn{srvConn, cliConn} {
		side := [2]string{"server", "client"}[i]
		r, w := conn.reads.Load()-reads[i], conn.writes.Load()-writes[i]
		t.Logf("%s: %d reads, %d writes for %d echoes", side, r, w, n+1)
		if r > n+2 || w > n+1 {
			t.Errorf("%s: %d reads (ceiling %d), %d writes (ceiling %d) for %d echoes", side, r, n+2, w, n+1, n+1)
		}
	}
	ranOn.Range(func(id, _ any) bool {
		if id != readLoop {
			t.Errorf("an inline call ran on goroutine %v, not on the read loop %v", id, readLoop)
		}
		return true
	})
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f mallocs per echo", mallocs)
	if !raceEnabled && mallocs > maxMallocsPerEcho {
		t.Errorf("%.2f mallocs per echo, ceiling %d", mallocs, maxMallocsPerEcho)
	}
}

// TestBufferedRequestsShareOneWrite: requests that reach the server in one
// read are all answered before its reply buffer is flushed, once.
func TestBufferedRequestsShareOneWrite(t *testing.T) {
	client, server := net.Pipe()
	s := NewServer()
	s.HandleBuf("echo", func(_ Ctx, req []byte, resp *codec.Writer) error {
		resp.Raw(req)
		return nil
	})
	srvConn := &countingConn{Conn: server}
	s.wg.Add(1)
	go s.serveConn(srvConn)
	defer s.Close()
	defer client.Close()

	const k = 16
	var burst []byte
	var err error
	for id := uint64(1); id <= k; id++ {
		if burst, err = appendFrame(burst, frameRequest, id, 0, 0, "echo", []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	go client.Write(burst) // one write: the pipe hands it to the server's one read
	fr := frameReader{r: client}
	for id := uint64(1); id <= k; id++ {
		f, err := fr.next()
		if err != nil || f.id != id || f.typ != frameResponse || !bytes.Equal(f.payload, []byte{byte(id)}) {
			t.Fatalf("reply %d: %+v, %v", id, f, err)
		}
	}
	if w := srvConn.writes.Load(); w != 1 {
		t.Fatalf("%d buffered requests were answered with %d socket writes, want 1", k, w)
	}
}

// TestParkedHandlerNeverBlocksInline: 64 calls parked on one connection —
// half through the Handle adapter, half by a handler's own Park — do not
// delay a call that never parks behind them.
func TestParkedHandlerNeverBlocksInline(t *testing.T) {
	s := NewServer()
	release := make(chan struct{})
	var parked sync.WaitGroup
	s.Handle("park", func([]byte) ([]byte, error) {
		parked.Done()
		<-release
		return nil, nil
	})
	s.HandleBuf("wait", func(Ctx, []byte, *codec.Writer) error {
		return Park(func() error {
			parked.Done()
			<-release
			return nil
		})
	})
	s.HandleBuf("quick", func(_ Ctx, _ []byte, resp *codec.Writer) error {
		resp.Byte(7)
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

	const callers = 64
	parked.Add(callers)
	var done sync.WaitGroup
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			method := "park"
			if i%2 == 1 {
				method = "wait"
			}
			if _, err := c.Call(method, nil, 10*time.Second); err != nil {
				t.Errorf("%s: %v", method, err)
			}
		}(i)
	}
	parked.Wait() // all 64 handlers are running, none has returned
	for i := 0; i < 100; i++ {
		resp, err := c.Call("quick", nil, time.Second)
		if err != nil || !bytes.Equal(resp, []byte{7}) {
			t.Fatalf("inline call behind %d parked handlers: %v, %v", callers, resp, err)
		}
	}
	close(release)
	done.Wait()
}

func streamServer(t *testing.T, pushes int, end error) string {
	t.Helper()
	s := NewServer()
	s.HandleBuf("count", func(ctx Ctx, req []byte, _ *codec.Writer) error {
		tag := append([]byte(nil), req...) // req is the read loop's: the wait keeps a copy
		return Park(func() error {
			for i := 0; i < pushes; i++ {
				if err := ctx.Push(append([]byte{byte(i)}, tag...)); err != nil {
					return err
				}
			}
			return end
		})
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

// TestStreamPushesThenEnds: pushed payloads arrive in order ahead of the
// stream's end, which is ErrEndOfStream after a clean return and the handler's
// error otherwise; an empty stream waits out Recv's patience and no more.
func TestStreamPushesThenEnds(t *testing.T) {
	for _, end := range []error{nil, errors.New("boom")} {
		addr := streamServer(t, 5, end)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.OpenStream("count", []byte("x"), 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			p, err := st.Recv(time.Second)
			if err != nil || !bytes.Equal(p, []byte{byte(i), 'x'}) {
				t.Fatalf("push %d: %q, %v", i, p, err)
			}
		}
		_, err = st.Recv(time.Second)
		var re *RemoteError
		if end == nil && err != ErrEndOfStream || end != nil && !(errors.As(err, &re) && re.Msg == "boom") {
			t.Fatalf("stream ended with %v, handler returned %v", err, end)
		}
		start := time.Now()
		if p, err := st.Recv(30 * time.Millisecond); p != nil || err != nil || time.Since(start) < 20*time.Millisecond {
			t.Fatalf("Recv on a drained stream: %q, %v after %v", p, err, time.Since(start))
		}
		c.Close()
	}
}

// TestStreamOverrunDropsConnection: a server that pushes past the window
// the client sized its buffer for is a protocol violation; the read loop
// does not block on it, it drops the connection, and the client carries on
// over a new one.
func TestStreamOverrunDropsConnection(t *testing.T) {
	addr := streamServer(t, 8, nil)
	c := DialOpts(addr, Options{})
	defer c.Close()
	st, err := c.OpenStream("count", nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is read until the read loop has met the fourth push and
	// dropped the connection: how full the channel is decides what overruns.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.connMu.Lock()
		dropped := c.conn == nil
		c.connMu.Unlock()
		if dropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the read loop never dropped the overrunning connection")
		}
	}
	var last error
	pushes := 0
	for ; last == nil; pushes++ {
		_, last = st.Recv(time.Second)
	}
	if pushes-1 != 3 {
		t.Fatalf("%d pushes were delivered ahead of the overrun, want the window of 3", pushes-1)
	}
	if !errors.Is(last, errStreamOverrun) {
		t.Fatalf("overrun stream ended with %v", last)
	}
	if st, err = c.OpenStream("count", nil, 8); err != nil {
		t.Fatal(err)
	}
	if p, err := st.Recv(time.Second); err != nil || len(p) != 1 {
		t.Fatalf("stream after the reconnect: %q, %v", p, err)
	}
}

// TestStreamDiesWithItsConnection: a connection killed between two pushed
// frames ends the stream with the transport's error, after the frames that
// did arrive.
func TestStreamDiesWithItsConnection(t *testing.T) {
	defer faultpoint.Reset()
	s := NewServer()
	proceed := make(chan struct{})
	s.HandleBuf("two", func(ctx Ctx, _ []byte, _ *codec.Writer) error {
		return Park(func() error {
			if err := ctx.Push([]byte("a")); err != nil {
				return err
			}
			<-proceed
			return ctx.Push([]byte("b"))
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
	st, err := c.OpenStream("two", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := st.Recv(time.Second); err != nil || string(p) != "a" {
		t.Fatalf("first push: %q, %v", p, err)
	}
	faultpoint.ErrorOnce("rpc.client.read")
	close(proceed)
	if p, err := st.Recv(time.Second); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("stream over a killed connection: %q, %v", p, err)
	}
}

// frameCopy is a frame that owns its bytes.
func frameCopy(f frame) frame {
	f.method = append([]byte{}, f.method...)
	f.payload = append([]byte{}, f.payload...)
	return f
}

func sameFrame(a, b frame) bool {
	return a.typ == b.typ && a.id == b.id && a.trace == b.trace && a.budget == b.budget &&
		bytes.Equal(a.method, b.method) && bytes.Equal(a.payload, b.payload)
}

// readAll parses data delivered in two reads split at split, and reports
// the frames, the reader's final buffer size and the error that ended them.
func readAll(data []byte, split int) ([]frame, int, error) {
	fr := frameReader{r: io.MultiReader(bytes.NewReader(data[:split]), bytes.NewReader(data[split:]))}
	var frames []frame
	for {
		f, err := fr.next()
		if err != nil {
			return frames, len(fr.buf), err
		}
		frames = append(frames, frameCopy(f))
	}
}

// FuzzFrame feeds the frame reader arbitrary bytes — several frames to a
// buffer, the input split across two reads at every byte boundary. It must
// never panic, never hold a buffer larger than twice the bytes it was given
// (whatever a length prefix claims), parse the same frames wherever the
// split falls, and every frame it accepts must survive appendFrame and a
// second parse unchanged.
func FuzzFrame(f *testing.F) {
	var valid []byte
	valid, _ = appendFrame(valid, frameRequest, 1, 2, 3, "mq.append", []byte("payload"))
	valid, _ = appendFrame(valid, frameResponse, 1, 2, 0, "", nil)
	valid, _ = appendFrame(valid, frameStream, 9, 0, 0, "", bytes.Repeat([]byte{0xAB}, 5000))
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                                           // truncated mid-frame
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))                   // a prefix claiming 64 MiB
	f.Add(binary.BigEndian.AppendUint32(nil, 5))                          // below the header minimum
	f.Add(append(binary.BigEndian.AppendUint32(nil, 27), valid[4:31]...)) // method length past the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		want, _, wantErr := readAll(data, len(data))
		step := 1 + len(data)/64 // every boundary of a short input, 64 of a long one
		for split := 0; split < len(data); split += step {
			got, size, err := readAll(data, split)
			if size > max(readBufSize, 2*len(data)) {
				t.Fatalf("split %d: %d-byte buffer for %d bytes of input", split, size, len(data))
			}
			if len(got) != len(want) || (err == io.EOF) != (wantErr == io.EOF) {
				t.Fatalf("split %d: %d frames then %v, unsplit %d frames then %v", split, len(got), err, len(want), wantErr)
			}
			for i := range got {
				if !sameFrame(got[i], want[i]) {
					t.Fatalf("split %d, frame %d: %+v, unsplit %+v", split, i, got[i], want[i])
				}
			}
		}
		for i, fm := range want {
			buf, err := appendFrame(nil, fm.typ, fm.id, fm.trace, fm.budget, string(fm.method), fm.payload)
			if err != nil {
				t.Fatalf("frame %d does not write back: %v", i, err)
			}
			again, err := (&frameReader{r: bytes.NewReader(buf)}).next()
			if err != nil || !sameFrame(again, fm) {
				t.Fatalf("frame %d round trip: %+v, %v, want %+v", i, again, err, fm)
			}
		}
	})
}
