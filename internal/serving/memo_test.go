package serving

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
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
// the same vertices and cells whose rows and edges differ in every bit
// pattern, so entries for one version are stored and replaced while others
// copy them. Every body must be the reflective encoding of its own answer.
func TestFeatureTextConcurrentVersions(t *testing.T) {
	clearFeatureText()
	var versions [2]*Result
	for i := range versions {
		res := &Result{Layers: [][]graph.VertexID{{1}, nil}, Features: make(map[graph.VertexID][]float32)}
		for v := graph.VertexID(1); v <= 40; v++ {
			res.Features[v] = []float32{float32(v) / 7, float32(i) - 0.25, float32(v*v) * 1e-7}
			if v > 1 && v%3 != graph.VertexID(i) {
				res.Layers[1] = append(res.Layers[1], v)
				res.Edges = append(res.Edges, SampledEdge{Hop: 0, Parent: 1, Child: v, Ts: graph.Timestamp(v) - graph.Timestamp(i)})
			}
		}
		versions[i] = res
	}
	var encs [2]Encoded
	var wants [2][]byte
	for i, res := range versions {
		encs[i], wants[i] = encodeOrdered(res), oracle(t, res)
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

// TestCellTextFollowsItsBytes reads answers that share the cell of (0, 7)
// three times each, in turn, so each finds the memo holding another's
// version: a cell's text is copied only for a byte-equal run that ends
// where the entry's does, and a layer's only when it is exactly its
// cells' children. Every body must be the reflective encoding of its own
// answer, or fail as Decode does.
func TestCellTextFollowsItsBytes(t *testing.T) {
	clearFeatureText()
	edge := func(parent, child graph.VertexID, ts graph.Timestamp) SampledEdge {
		return SampledEdge{Hop: 0, Parent: parent, Child: child, Ts: ts, Weight: 1}
	}
	grown := &Result{Layers: [][]graph.VertexID{{7}, {8, 8, 9}}, Edges: append(oneCell(8).Edges, edge(7, 9, 5))}
	answers := []struct {
		name string
		res  *Result
	}{
		{"two edges", oneCell(8)},
		{"one more edge", grown},
		{"another child", oneCell(9)},
		{"layer reordered", &Result{Layers: [][]graph.VertexID{{7}, {9, 8}}, Edges: oneCell(9).Edges}},
		{"layer with one more", &Result{Layers: [][]graph.VertexID{{7}, {8, 9, 9}}, Edges: oneCell(9).Edges}},
		{"layer with one less", &Result{Layers: [][]graph.VertexID{{7}, {8}}, Edges: oneCell(9).Edges}},
		{"layer of two cells", &Result{Layers: [][]graph.VertexID{{7, 6}, {8, 9, 1}}, Edges: append(oneCell(9).Edges, edge(6, 1, 1))}},
		{"cells split by another", &Result{Layers: [][]graph.VertexID{{7}, {8, 9, 1, 8, 9}},
			Edges: slices.Concat(oneCell(9).Edges, []SampledEdge{edge(6, 1, 1)}, oneCell(9).Edges)}},
	}
	for round := 0; round < 2; round++ {
		for _, a := range answers {
			want := oracle(t, a.res)
			for i := 0; i < 3; i++ {
				if body := transcode(t, encodeResult(a.res)); !bytes.Equal(body, want) {
					t.Fatalf("%s, read %d: got %s, want %s", a.name, i, body, want)
				}
			}
		}
	}
	// The grown cell's encoding with its edge count cut to two: the stored
	// three-edge run must not be stepped over past the count.
	transcode(t, encodeResult(grown))
	transcode(t, encodeResult(grown))
	short := encodeResult(grown)
	short[bytes.Index(short, []byte{3, 0, 7})]--
	res, derr := short.Decode()
	for i := 0; i < 3; i++ {
		body, err := short.AppendJSON(nil, 3)
		if (err == nil) != (derr == nil) || (err == nil && !bytes.Equal(body, oracle(t, res))) {
			t.Fatalf("read %d of a short edge count: AppendJSON %s, %v; Decode %v", i, body, err, derr)
		}
	}
}

// TestTextMemoKeepsKindsApart: a feature row whose vertex id is a cell's
// memo key and whose bits are that cell's bytes is not served the cell's
// text, nor the cell the row's.
func TestTextMemoKeepsKindsApart(t *testing.T) {
	clearFeatureText()
	cell := &Result{Layers: [][]graph.VertexID{{7}, {8}}, Edges: []SampledEdge{{Hop: 0, Parent: 7, Child: 8, Ts: 3, Weight: 1}}}
	enc := encodeResult(cell)
	run := enc[bytes.Index(enc, []byte{1, 0, 7, 8})+1:][:8] // the one edge: hop, parent, child, ts, weight
	row := &Result{Features: map[graph.VertexID][]float32{graph.VertexID(runKey(0, 7)): {
		math.Float32frombits(binary.LittleEndian.Uint32(run)), math.Float32frombits(binary.LittleEndian.Uint32(run[4:])),
	}}}
	for i := 0; i < 6; i++ {
		res := []*Result{cell, row}[i/3%2] // three reads each: stored, then copied
		if body, want := transcode(t, encodeResult(res)), oracle(t, res); !bytes.Equal(body, want) {
			t.Fatalf("read %d: got %s, want %s", i, body, want)
		}
	}
}

// TestCellTextRepeatedParent: a parent listed twice in a row in the hop
// before repeats its whole cell; each copy is a run of its own, copied from
// the entry the parent's cell has when it is listed once.
func TestCellTextRepeatedParent(t *testing.T) {
	clearFeatureText()
	answer := func(members ...graph.VertexID) *Result {
		res := &Result{Layers: [][]graph.VertexID{{7}, members, nil}}
		for _, m := range members {
			res.Edges = append(res.Edges, SampledEdge{Hop: 0, Parent: 7, Child: m, Ts: 1})
		}
		for _, m := range members {
			for _, c := range []graph.VertexID{m + 100, m + 200} {
				res.Layers[2] = append(res.Layers[2], c)
				res.Edges = append(res.Edges, SampledEdge{Hop: 1, Parent: m, Child: c, Ts: 2})
			}
		}
		return res
	}
	once, twice := answer(8, 9), answer(8, 8, 9)
	for i := 0; i < 3; i++ {
		transcode(t, encodeResult(once))
	}
	before := FormattedCells()
	if body, want := transcode(t, encodeResult(twice)), oracle(t, twice); !bytes.Equal(body, want) {
		t.Fatalf("got %s, want %s", body, want)
	}
	if n := FormattedCells() - before; n != 1 {
		t.Fatalf("with 8 listed twice, %d cells formatted; want 1, the hop-0 cell", n)
	}
}
