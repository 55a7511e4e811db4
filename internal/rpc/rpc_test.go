package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"helios/internal/codec"
)

func startEcho(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(req []byte) ([]byte, error) {
		return req, nil
	})
	s.Handle("fail", func(req []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	s.Handle("slow", func(req []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return req, nil
	})
	s.Handle("panic", func(req []byte) ([]byte, error) {
		panic("kaboom")
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr
}

func TestCallRoundTrip(t *testing.T) {
	s, addr := startEcho(t)
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call("echo", []byte("hello"), time.Second)
	if err != nil || !bytes.Equal(resp, []byte("hello")) {
		t.Fatalf("echo: %q %v", resp, err)
	}
	// Empty payload.
	resp, err = c.Call("echo", nil, time.Second)
	if err != nil || len(resp) != 0 {
		t.Fatalf("empty echo: %q %v", resp, err)
	}
	// Large payload.
	big := bytes.Repeat([]byte{7}, 1<<20)
	resp, err = c.Call("echo", big, 5*time.Second)
	if err != nil || !bytes.Equal(resp, big) {
		t.Fatalf("big echo failed: %v", err)
	}
}

func TestRemoteError(t *testing.T) {
	s, addr := startEcho(t)
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call("fail", nil, time.Second)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	s, addr := startEcho(t)
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call("nope", nil, time.Second)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	s, addr := startEcho(t)
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call("panic", nil, time.Second); err == nil {
		t.Fatal("panic should surface as error")
	}
	// The connection must survive.
	resp, err := c.Call("echo", []byte("still alive"), time.Second)
	if err != nil || !bytes.Equal(resp, []byte("still alive")) {
		t.Fatalf("connection died after handler panic: %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	s, addr := startEcho(t)
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	start := time.Now()
	_, err := c.Call("slow", nil, 30*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Fatal("timeout returned too late")
	}
}

func TestNoHeadOfLineBlocking(t *testing.T) {
	// A slow call must not delay a fast call on the same connection.
	s, addr := startEcho(t)
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	done := make(chan struct{})
	go func() {
		c.Call("slow", nil, time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	if _, err := c.Call("echo", nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("fast call was blocked behind slow call")
	}
	<-done
}

func TestConcurrentCalls(t *testing.T) {
	s, addr := startEcho(t)
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg := []byte(fmt.Sprintf("g%d-m%d", id, i))
				resp, err := c.Call("echo", msg, 5*time.Second)
				if err != nil || !bytes.Equal(resp, msg) {
					t.Errorf("mismatch: %q vs %q (%v)", resp, msg, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClientCloseFailsInflight(t *testing.T) {
	s, addr := startEcho(t)
	defer s.Close()
	c, _ := Dial(addr)
	errs := make(chan error, 1)
	go func() {
		_, err := c.Call("slow", nil, 5*time.Second)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("in-flight call should fail on close")
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight call hung after close")
	}
	if _, err := c.Call("echo", nil, time.Second); err != ErrClosed {
		t.Fatalf("call after close = %v", err)
	}
	if c.Close() != nil {
		t.Fatal("double close")
	}
}

func TestServerCloseFailsClients(t *testing.T) {
	s, addr := startEcho(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call("echo", []byte("x"), time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.Call("echo", []byte("x"), time.Second); err == nil {
		t.Fatal("call to closed server should fail")
	}
	if s.Close() != nil {
		t.Fatal("double close")
	}
}

func TestServerAddr(t *testing.T) {
	s := NewServer()
	if s.Addr() != "" {
		t.Fatal("addr before listen should be empty")
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() != addr {
		t.Fatalf("Addr = %q, want %q", s.Addr(), addr)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func BenchmarkCallEcho(b *testing.B) {
	s := NewServer()
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", payload, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallEchoParallel(b *testing.B) {
	s := NewServer()
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Call("echo", payload, 5*time.Second)
		}
	})
}

func TestAppendFrameLimits(t *testing.T) {
	// Method name too long.
	long := make([]byte, 0x10000)
	if buf, err := appendFrame(nil, frameRequest, 1, 0, 0, string(long), nil); err == nil || len(buf) != 0 {
		t.Fatal("oversized method accepted")
	}
	// Payload beyond maxFrame.
	if buf, err := appendFrame(nil, frameRequest, 1, 0, 0, "m", make([]byte, maxFrame)); err == nil || len(buf) != 0 {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Declared length below the header minimum.
	var buf bytes.Buffer
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, 5)
	buf.Write(hdr)
	buf.Write(make([]byte, 5))
	if _, err := (&frameReader{r: &buf}).next(); err == nil {
		t.Fatal("short frame accepted")
	}
	// Method length overrunning the frame.
	buf.Reset()
	body := make([]byte, 27)
	binary.BigEndian.PutUint32(hdr, uint32(len(body)))
	body[0] = frameRequest
	binary.BigEndian.PutUint16(body[25:], 999)
	buf.Write(hdr)
	buf.Write(body)
	if _, err := (&frameReader{r: &buf}).next(); err == nil {
		t.Fatal("bad method length accepted")
	}
}

func TestListenAfterCloseFails(t *testing.T) {
	s := NewServer()
	s.Close()
	if _, err := s.Listen("127.0.0.1:0"); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
}

func TestListenBadAddress(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if _, err := s.Listen("256.256.256.256:99999"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestTracePropagation(t *testing.T) {
	s := NewServer()
	gotTrace := make(chan uint64, 2)
	s.HandleBuf("traced", func(ctx Ctx, req []byte, resp *codec.Writer) error {
		gotTrace <- ctx.Trace
		resp.Raw(req)
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

	const want = uint64(0xfeedface12345678)
	if _, err := c.CallTraced("traced", want, []byte("x"), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := <-gotTrace; got != want {
		t.Fatalf("handler saw trace %#x, want %#x", got, want)
	}
	// Plain Call carries trace 0 — the untraced hot path stays untraced.
	if _, err := c.Call("traced", []byte("y"), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := <-gotTrace; got != 0 {
		t.Fatalf("plain Call leaked trace %#x", got)
	}
	if s.Requests.Value() != 2 || c.Calls.Value() != 2 {
		t.Fatalf("counters: server=%d client=%d, want 2/2", s.Requests.Value(), c.Calls.Value())
	}
}
