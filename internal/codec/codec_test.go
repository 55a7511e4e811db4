package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"helios/internal/graph"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(-1)
	w.Varint(math.MinInt64)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Float32(3.5)
	w.Float64(-2.25)
	w.String("héllo")
	w.Bytes32([]byte{1, 2, 3})
	w.Float32s([]float32{0.5, -0.5})
	w.Uint64s([]uint64{7, 8, 9})

	r := NewReader(w.Bytes())
	if r.Uvarint() != 0 || r.Uvarint() != math.MaxUint64 {
		t.Fatal("uvarint")
	}
	if r.Varint() != -1 || r.Varint() != math.MinInt64 {
		t.Fatal("varint")
	}
	if r.Byte() != 0xAB {
		t.Fatal("byte")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool")
	}
	if r.Float32() != 3.5 || r.Float64() != -2.25 {
		t.Fatal("float")
	}
	if r.String() != "héllo" {
		t.Fatal("string")
	}
	if !reflect.DeepEqual(r.Bytes32(), []byte{1, 2, 3}) {
		t.Fatal("bytes")
	}
	if !reflect.DeepEqual(r.Float32s(), []float32{0.5, -0.5}) {
		t.Fatal("float32s")
	}
	if !reflect.DeepEqual(r.Uint64s(), []uint64{7, 8, 9}) {
		t.Fatal("uint64s")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{})
	if r.Byte() != 0 {
		t.Fatal("empty read should zero")
	}
	if r.Err() == nil {
		t.Fatal("error should be set")
	}
	// All subsequent reads keep returning zero values without panicking.
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Float32() != 0 || r.Float64() != 0 ||
		r.String() != "" || r.Bytes32() != nil || r.Float32s() != nil || r.Uint64s() != nil {
		t.Fatal("sticky error should zero all reads")
	}
	if r.Finish() == nil {
		t.Fatal("Finish should report the error")
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter(16)
	w.Float64(1.0)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Float64()
		if r.Err() == nil {
			t.Fatalf("truncated at %d bytes should fail", cut)
		}
	}
}

func TestReaderTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Finish(); err == nil {
		t.Fatal("trailing bytes should fail Finish")
	}
}

func TestReaderCorruptLengths(t *testing.T) {
	// A huge declared length must not cause allocation or panic.
	w := NewWriter(8)
	w.Uvarint(math.MaxUint64)
	for _, decode := range []func(r *Reader){
		func(r *Reader) { _ = r.String() },
		func(r *Reader) { r.Bytes32() },
		func(r *Reader) { r.Float32s() },
		func(r *Reader) { r.Uint64s() },
	} {
		r := NewReader(w.Bytes())
		decode(r)
		if r.Err() == nil {
			t.Fatal("huge length should fail")
		}
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(5)
	if w.Len() == 0 {
		t.Fatal("writer empty after append")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("reset should empty writer")
	}
}

func TestUpdateRoundTripEdge(t *testing.T) {
	u := graph.NewEdgeUpdate(graph.Edge{Src: 12, Dst: 9999999, Type: 3, Ts: -5, Weight: 1.25})
	u.Ingested = 123456789
	u.Trace = 42
	got, err := DecodeUpdate(EncodeUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, got) {
		t.Fatalf("round trip mismatch: %+v != %+v", u, got)
	}
}

func TestUpdateRoundTripVertex(t *testing.T) {
	u := graph.NewVertexUpdate(graph.Vertex{ID: 77, Type: 2, Feature: []float32{1, 2, 3.5}})
	got, err := DecodeUpdate(EncodeUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, got) {
		t.Fatalf("round trip mismatch: %+v != %+v", u, got)
	}
}

func TestUpdateUnknownKind(t *testing.T) {
	if _, err := DecodeUpdate([]byte{0xFF, 0, 0}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestUpdateQuickRoundTrip(t *testing.T) {
	f := func(src, dst uint64, et uint16, ts int64, w float32, ingested int64) bool {
		u := graph.NewEdgeUpdate(graph.Edge{
			Src: graph.VertexID(src), Dst: graph.VertexID(dst),
			Type: graph.EdgeType(et), Ts: graph.Timestamp(ts), Weight: w,
		})
		u.Ingested = ingested
		got, err := DecodeUpdate(EncodeUpdate(u))
		if err != nil {
			return false
		}
		// NaN weights break DeepEqual; compare bits.
		return got.Edge.Src == u.Edge.Src && got.Edge.Dst == u.Edge.Dst &&
			got.Edge.Type == u.Edge.Type && got.Edge.Ts == u.Edge.Ts &&
			math.Float32bits(got.Edge.Weight) == math.Float32bits(u.Edge.Weight) &&
			got.Ingested == u.Ingested
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexQuickRoundTrip(t *testing.T) {
	f := func(id uint64, vt uint16, feat []float32) bool {
		for i, x := range feat {
			if math.IsNaN(float64(x)) {
				feat[i] = 0
			}
		}
		u := graph.NewVertexUpdate(graph.Vertex{ID: graph.VertexID(id), Type: graph.VertexType(vt), Feature: feat})
		got, err := DecodeUpdate(EncodeUpdate(u))
		if err != nil {
			return false
		}
		if len(feat) == 0 {
			return len(got.Vertex.Feature) == 0
		}
		return reflect.DeepEqual(got.Vertex.Feature, feat) && got.Vertex.ID == u.Vertex.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeUpdateTruncated(t *testing.T) {
	full := EncodeUpdate(graph.NewEdgeUpdate(graph.Edge{Src: 1, Dst: 2, Type: 1, Ts: 5, Weight: 2}))
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeUpdate(full[:cut]); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
}

func BenchmarkEncodeUpdate(b *testing.B) {
	u := graph.NewEdgeUpdate(graph.Edge{Src: 123456, Dst: 654321, Type: 2, Ts: 1700000000, Weight: 1})
	w := NewWriter(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		AppendUpdate(w, u)
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	buf := EncodeUpdate(graph.NewEdgeUpdate(graph.Edge{Src: 123456, Dst: 654321, Type: 2, Ts: 1700000000, Weight: 1}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeUpdate(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloat32s writes the feature rows of one [25,10] answer, 276
// rows of 10 floats, each behind its id, into a reused writer.
func BenchmarkFloat32s(b *testing.B) {
	row := []float32{0.5, -1.25, 3, 1e-7, 2, 0, 7.5, -0.125, 9, 10}
	w := NewWriter(16 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for v := uint64(0); v < 276; v++ {
			w.Uvarint(1<<40 + v)
			w.Float32s(row)
		}
	}
}

// TestUvarintMatchesBinary: Reader.Uvarint reads what binary.Uvarint does,
// and fails where it fails, at every length, with any bytes after it.
func TestUvarintMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bufs := [][]byte{{}, {0x80}, bytes.Repeat([]byte{0xff}, 10), bytes.Repeat([]byte{0x80}, 12), append(bytes.Repeat([]byte{0xff}, 9), 2)}
	for i := 0; i < 20000; i++ {
		b := binary.AppendUvarint(nil, rng.Uint64()>>uint(rng.Intn(64)))
		for n := rng.Intn(10); n > 0; n-- {
			b = append(b, byte(rng.Intn(256)))
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		want, n := binary.Uvarint(b)
		r := NewReader(b)
		got := r.Uvarint()
		if n <= 0 {
			if r.Err() == nil {
				t.Fatalf("% x: read %d, binary.Uvarint fails", b, got)
			}
			continue
		}
		if r.Err() != nil || got != want || r.Remaining() != len(b)-n {
			t.Fatalf("% x: read %d (%v) leaving %d, want %d leaving %d", b, got, r.Err(), r.Remaining(), want, len(b)-n)
		}
	}
}
