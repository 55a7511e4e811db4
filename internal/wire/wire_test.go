package wire

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/query"
)

func TestRoundTripSampleUpsert(t *testing.T) {
	m := Message{
		Kind:   KindSampleUpsert,
		Hop:    query.MakeHopID(2, 1),
		Vertex: 42,
		Samples: []SampleRef{
			{Neighbor: 7, Ts: 100, Weight: 1.5},
			{Neighbor: 9, Ts: -3, Weight: 0},
		},
		Ingested: 123456,
	}
	got, err := Decode(Encode(&m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("%+v != %+v", m, got)
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []Message{
		{Kind: KindSampleUpsert, Hop: 1, Vertex: 2},
		{Kind: KindSampleEvict, Hop: 1, Vertex: 2, Ingested: 5},
		{Kind: KindFeatureUpdate, Vertex: 3, Feature: []float32{1, 2, 3}},
		{Kind: KindFeatureEvict, Vertex: 4},
		{Kind: KindSubDelta, Hop: 9, Vertex: 5, SEW: 3, Delta: -1},
		{Kind: KindFeatSubDelta, Vertex: 6, SEW: 0, Delta: 1},
	}
	for _, m := range msgs {
		got, err := Decode(Encode(&m))
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v: %+v != %+v", m.Kind, m, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer should fail")
	}
	if _, err := Decode([]byte{0xEE, 0, 0, 0}); err == nil {
		t.Fatal("unknown kind should fail")
	}
	full := Encode(&Message{Kind: KindSampleUpsert, Vertex: 1, Samples: []SampleRef{{Neighbor: 2, Ts: 3}}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := Decode(append(Encode(&Message{Kind: KindFeatureEvict, Vertex: 1}), 0xFF)); err == nil {
		t.Fatal("trailing bytes should fail")
	}
}

// TestCraftedSampleCountRefused: an upsert's sample count is checked
// against the bytes left at MinSampleRef each, so a count one past that
// bound fails before anything is sized from it, where checking it against
// one byte each let a record allocate 24 bytes of SampleRef per input byte.
// The largest count the bytes can hold decodes, at 4 bytes per input byte.
func TestCraftedSampleCountRefused(t *testing.T) {
	const pad = 60 << 10 // zero bytes: each run of six is a valid sample
	upsert := func(count int) []byte {
		w := codec.NewWriter(pad + 32)
		Append(w, &Message{Kind: KindSampleUpsert, Hop: 1, Vertex: 2})
		buf := w.Bytes()[:w.Len()-1] // drop the empty snapshot's count
		buf = binary.AppendUvarint(buf, uint64(count))
		return append(buf, make([]byte, pad)...)
	}
	allocated := func(decode func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, count := range []int{pad/MinSampleRef + 1, pad} {
		bad := upsert(count)
		var into Message
		var err, errInto error
		grew := allocated(func() {
			_, err = Decode(bad)
			errInto = DecodeInto(bad, &into)
		})
		if err == nil || errInto == nil {
			t.Fatalf("count %d over %d bytes: Decode %v, DecodeInto %v; want both refused", count, pad, err, errInto)
		}
		if grew > 4<<10 {
			t.Fatalf("count %d over %d bytes: refusing it allocated %d bytes", count, pad, grew)
		}
	}
	m, err := Decode(upsert(pad / MinSampleRef))
	if err != nil || len(m.Samples) != pad/MinSampleRef {
		t.Fatalf("the largest count the bytes hold: %d samples, %v", len(m.Samples), err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindSampleUpsert: "SampleUpsert", KindSampleEvict: "SampleEvict",
		KindFeatureUpdate: "FeatureUpdate", KindFeatureEvict: "FeatureEvict",
		KindSubDelta: "SubDelta", KindFeatSubDelta: "FeatSubDelta",
		Kind(99): "Kind(99)",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestQuickRoundTripSubDelta(t *testing.T) {
	f := func(hop uint32, v uint64, sew int32, plus bool, ing int64) bool {
		d := int8(1)
		if !plus {
			d = -1
		}
		m := Message{Kind: KindSubDelta, Hop: query.HopID(hop), Vertex: graph.VertexID(v), SEW: sew, Delta: d, Ingested: ing}
		got, err := Decode(Encode(&m))
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeUpsert25(b *testing.B) {
	m := Message{Kind: KindSampleUpsert, Hop: 1, Vertex: 42, Samples: make([]SampleRef, 25)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(&m)
	}
}

func BenchmarkDecodeUpsert25(b *testing.B) {
	buf := Encode(&Message{Kind: KindSampleUpsert, Hop: 1, Vertex: 42, Samples: make([]SampleRef, 25)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
