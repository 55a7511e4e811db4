package rpc

import (
	"bytes"
	"testing"
)

// TestFrameCodecZeroAlloc pins the frame path at zero steady-state
// allocations: a frame is assembled in its connection's write buffer and
// parsed in place out of its peer's read buffer, so once both have grown to
// fit, a frame crosses with no allocation of its own.
func TestFrameCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	payload := bytes.Repeat([]byte{0xAB}, 512)
	var wire bytes.Buffer
	var wbuf []byte
	fr := frameReader{r: &wire}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if wbuf, err = appendFrame(wbuf[:0], frameRequest, 7, 9, 1000, "helios.sample", payload); err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
		wire.Write(wbuf)
		f, err := fr.next()
		if err != nil || f.typ != frameRequest || f.id != 7 || f.trace != 9 || f.budget != 1000 ||
			string(f.method) != "helios.sample" || !bytes.Equal(f.payload, payload) {
			t.Fatalf("frame round trip: %+v, %v", f, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame write and read: %v allocs/op, want 0", allocs)
	}
}

// TestReadBufferIsNotPinned: a frame larger than the buffer grows it, and a
// buffer grown past maxIdleBuf is dropped for a fresh one as soon as it
// drains.
func TestReadBufferIsNotPinned(t *testing.T) {
	var wire bytes.Buffer
	fr := frameReader{r: &wire}
	for _, size := range []int{100, 3 * maxIdleBuf, 100} {
		buf, err := appendFrame(nil, frameResponse, 1, 0, 0, "", make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(buf)
		if f, err := fr.next(); err != nil || len(f.payload) != size {
			t.Fatalf("%d-byte payload: got %d, %v", size, len(f.payload), err)
		}
		if size < readBufSize && len(fr.buf) != readBufSize {
			t.Fatalf("after a %d-byte frame the reader holds a %d-byte buffer, want %d", size, len(fr.buf), readBufSize)
		}
	}
}
