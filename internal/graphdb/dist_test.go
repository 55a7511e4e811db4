package graphdb

import (
	"math/rand"
	"runtime"
	"testing"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/serving"
)

// TestDistRefusesCraftedCounts hands both ends of the partition-server hop
// a few bytes that claim a huge count: a request naming 1<<20 vertices (the
// reply buffer was sized from it: 64 MiB), and replies claiming 1<<16
// sampled edges or 1<<20 features. Each must be refused, and the attempt
// may allocate less than 4 KiB.
func TestDistRefusesCraftedCounts(t *testing.T) {
	store := NewStore(StoreOptions{})
	rng := rand.New(rand.NewSource(1))
	huge := func(prefix []byte, n uint64) []byte {
		w := codec.NewWriter(16)
		w.Raw(prefix)
		w.Uvarint(n)
		w.Raw([]byte{1, 2}) // two one-byte vertices, or the start of one entry
		return w.Bytes()
	}
	// gdb.sample: edge type, direction, strategy, fanout, then the count.
	sampleReq := huge([]byte{0, 0, 0, 1}, 1<<20)
	// A reply: one vertex (id, scanned) whose edge count is huge.
	sampleResp := huge([]byte{1, 1, 0}, 1<<16)
	// gdb.feat request or reply: the count alone.
	featCount := huge(nil, 1<<20)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"sample request", func() error { _, err := serveSample(store, rng, sampleReq); return err }},
		{"feature request", func() error { _, err := serveFeat(store, featCount); return err }},
		{"sample reply", func() error {
			_, err := readSamples(sampleResp, 0, &serving.Result{}, nil, &ExecStats{})
			return err
		}},
		{"feature reply", func() error {
			return readFeatures(featCount, &serving.Result{Features: map[graph.VertexID][]float32{}})
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s claiming a huge count over a few bytes was accepted", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", c.name, grew)
		}
	}
}
