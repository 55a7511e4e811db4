package codec

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"helios/internal/graph"
)

// FuzzDecodeUpdate feeds arbitrary bytes to ReadUpdate — what every sampler
// reads off the broker for each helios.updates record. It must never panic
// or allocate out of proportion to the input, and an update it decodes must
// re-encode to bytes that decode to the same update.
func FuzzDecodeUpdate(f *testing.F) {
	for _, u := range []graph.Update{
		graph.NewVertexUpdate(graph.Vertex{ID: 77, Type: 2, Feature: []float32{1, float32(math.NaN()), -0.0}}),
		graph.NewVertexUpdate(graph.Vertex{ID: 1}),
		{Kind: graph.UpdateEdge, Edge: graph.Edge{Src: 12, Dst: 9999999, Type: 3, Ts: -5, Weight: 1.25},
			Ingested: 1_700_000_000_000_000_000, Trace: 0xfeed},
	} {
		f.Add(EncodeUpdate(u))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A feature float is 4 bytes decoded from 4; the slack covers the
		// fixed-size update and the measurement itself.
		const allocFactor, allocSlack = 4, 16 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := ReadUpdate(NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocFactor*len(data)+allocSlack) {
			t.Fatalf("%d input bytes made ReadUpdate allocate %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := DecodeUpdate(EncodeUpdate(u))
		if err != nil || !sameUpdate(u, again) {
			t.Fatalf("DecodeUpdate(EncodeUpdate(u)) does not round-trip (%v):\n%+v\n%+v", err, u, again)
		}
	})
}

// sameUpdate compares two updates with floats by bit pattern, so NaN and -0
// count as themselves.
func sameUpdate(a, b graph.Update) bool {
	bits := func(f float32) uint32 { return math.Float32bits(f) }
	return a.Kind == b.Kind && a.Ingested == b.Ingested && a.Trace == b.Trace &&
		a.Vertex.ID == b.Vertex.ID && a.Vertex.Type == b.Vertex.Type &&
		slices.EqualFunc(a.Vertex.Feature, b.Vertex.Feature, func(x, y float32) bool { return bits(x) == bits(y) }) &&
		a.Edge.Src == b.Edge.Src && a.Edge.Dst == b.Edge.Dst && a.Edge.Type == b.Edge.Type &&
		a.Edge.Ts == b.Edge.Ts && bits(a.Edge.Weight) == bits(b.Edge.Weight)
}
