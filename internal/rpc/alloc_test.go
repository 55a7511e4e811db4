package rpc

import (
	"bytes"
	"io"
	"testing"
)

// TestWriteFrameZeroAlloc pins the pooled frame-write path at zero
// steady-state allocations: the header+body staging buffer comes from
// the frame pool, so serializing a frame allocates nothing once the pool
// is warm.
func TestWriteFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	payload := bytes.Repeat([]byte{0xAB}, 512)
	allocs := testing.AllocsPerRun(200, func() {
		if err := writeFrame(io.Discard, frameRequest, 7, 9, 1000, "helios.sample", payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writeFrame pooled path: %v allocs/op, want 0", allocs)
	}
}

// TestFrameBufPoolRoundTrip writes a frame through the pooled path and
// reads it back through a frameReader, then checks that oversized buffers
// are not pooled.
func TestFrameBufPoolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello")
	if err := writeFrame(&buf, frameRequest, 3, 5, 42, "m", payload); err != nil {
		t.Fatal(err)
	}
	f, err := (&frameReader{r: &buf}).next()
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != frameRequest || f.id != 3 || f.trace != 5 || f.budget != 42 || string(f.method) != "m" || string(f.payload) != "hello" {
		t.Fatalf("frame round trip: %+v", f)
	}

	// Oversized buffers must be dropped, not pooled.
	big := make([]byte, 0, maxPooledFrame+1)
	putFrameBuf(&big)
	for i := 0; i < 100; i++ {
		fb := getFrameBuf(16)
		if cap(*fb) > maxPooledFrame {
			t.Fatalf("oversized frame buf (cap %d) was pooled", cap(*fb))
		}
		putFrameBuf(fb)
	}
}
