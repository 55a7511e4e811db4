package serving

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"

	"helios/internal/graph"
)

// The feature-text memo's own properties: a copied row is the row the
// bits say, whoever else reads or replaces it meanwhile.

// transcode is AppendJSON's body for enc, failing the test on error.
func transcode(tb testing.TB, enc Encoded) []byte {
	tb.Helper()
	body, err := enc.AppendJSON(nil, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// oracle is the reflective encoding of res with trace 3.
func oracle(tb testing.TB, res *Result) []byte {
	tb.Helper()
	want, err := reflectiveJSON(res, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return want
}

// TestFeatureTextConcurrentVersions: goroutines transcode two answers over
// the same vertices whose rows differ in every bit pattern, so entries for
// one version are stored and replaced while others copy them. Every body
// must be the reflective encoding of its own answer.
func TestFeatureTextConcurrentVersions(t *testing.T) {
	clearFeatureText()
	var versions [2]*Result
	for i := range versions {
		res := &Result{Layers: [][]graph.VertexID{{1}}, Features: make(map[graph.VertexID][]float32)}
		for v := graph.VertexID(1); v <= 40; v++ {
			res.Features[v] = []float32{float32(v) / 7, float32(i) - 0.25, float32(v*v) * 1e-7}
		}
		versions[i] = res
	}
	var encs [2]Encoded
	var wants [2][]byte
	for i, res := range versions {
		encs[i], wants[i] = encodeResult(res), oracle(t, res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v := (i + g) % 2
				body, err := encs[v].AppendJSON(nil, 3)
				if err == nil && !bytes.Equal(body, wants[v]) {
					err = errors.New("body differs from the reflective encoding of its own answer:\n" + string(body))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFeatureTextRefusesNonFinite: once a finite row of vertex 41 is
// copied from the memo, a NaN or infinite row of the same vertex is still
// refused, naming 41, with dst unchanged.
func TestFeatureTextRefusesNonFinite(t *testing.T) {
	clearFeatureText()
	good := encodeResult(&Result{Features: map[graph.VertexID][]float32{41: {0.5, 2}}})
	for i := 0; i < 2; i++ {
		transcode(t, good)
	}
	before := FormattedRows()
	transcode(t, good)
	if n := FormattedRows() - before; n != 0 {
		t.Fatalf("the finite row was formatted %d times on its third read, want copied", n)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		dst := []byte("kept")
		out, err := encodeResult(&Result{Features: map[graph.VertexID][]float32{41: {0.5, bad}}}).AppendJSON(dst, 3)
		var fe *FeatureValueError
		if !errors.As(err, &fe) || fe.Vertex != 41 {
			t.Fatalf("%v: err = %v, want a FeatureValueError for vertex 41", bad, err)
		}
		if string(out) != "kept" {
			t.Fatalf("%v: dst came back as %q", bad, out)
		}
	}
}

// TestFeatureTextSignedZero: -0 and +0 compare equal as floats but are
// different bits and different text, and neither may be served for the
// other.
func TestFeatureTextSignedZero(t *testing.T) {
	clearFeatureText()
	negZero := float32(math.Copysign(0, -1))
	var encs [2]Encoded
	var wants [2][]byte
	for i, z := range []float32{0, negZero} {
		res := &Result{Features: map[graph.VertexID][]float32{9: {z, 1}}}
		encs[i], wants[i] = encodeResult(res), oracle(t, res)
	}
	if bytes.Equal(wants[0], wants[1]) {
		t.Fatal("the oracle writes +0 and -0 alike")
	}
	for i := 0; i < 8; i++ {
		v := i / 3 % 2 // three reads of each in turn: each is stored, then copied
		if body := transcode(t, encs[v]); !bytes.Equal(body, wants[v]) {
			t.Fatalf("read %d: got %s, want %s", i, body, wants[v])
		}
	}
}

// TestFeatureTextOwnsItsBits: a featureRef aliases the payload it came
// from, which the rpc layer reuses for the next frame. An entry must hold
// its own copy of the bits, so rewriting the payload after the row is
// stored turns the next read into a miss with the new value's text.
func TestFeatureTextOwnsItsBits(t *testing.T) {
	clearFeatureText()
	res := &Result{Features: map[graph.VertexID][]float32{5: {1.5, 2}}}
	enc := encodeResult(res)
	for i := 0; i < 2; i++ {
		transcode(t, enc)
	}
	// The payload ends with the only feature's two floats.
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], math.Float32bits(3.25))
	res.Features[5][1] = 3.25
	before := FormattedRows()
	body := transcode(t, enc)
	if n := FormattedRows() - before; n != 1 {
		t.Fatalf("the rewritten row was formatted %d times, want 1", n)
	}
	if want := oracle(t, res); !bytes.Equal(body, want) {
		t.Fatalf("got %s, want %s", body, want)
	}
}
