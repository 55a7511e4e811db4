package serving

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/kvstore"
	"helios/internal/wire"
)

// FuzzEncodedResult feeds arbitrary bytes to every reader of the result's
// wire form — the bytes a frontend takes off a socket. None may panic or
// allocate out of proportion to the input, and where Decode accepts the
// input the readers must agree with each other: the header with the
// Result, AppendResult with Decode, and AppendJSON with the reflective
// encoder. AppendJSON runs three times per input — its feature rows
// formatted, then stored in the text memo, then copied from it — and
// must write the same bytes, or fail the same way, each time.
//
//	go test ./internal/serving -run '^$' -fuzz FuzzEncodedResult -fuzztime 10s
func FuzzEncodedResult(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(encodeResult(&Result{})))
	f.Add([]byte(encodeResult(goldenResult())))
	// One vertex, two bit patterns: a stored row must not answer for the
	// other.
	f.Add([]byte(encodeResult(&Result{Features: map[graph.VertexID][]float32{7: {1, 0.5}}})))
	f.Add([]byte(encodeResult(&Result{Features: map[graph.VertexID][]float32{7: {1, -0.5}}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		// What one input may cost: every count is checked against the bytes
		// left, so the largest structures are a map entry per two bytes and a
		// slice header per byte, and the JSON is a few characters per byte.
		const allocFactor, allocSlack = 256, 64 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc := Encoded(data)
		h, herr := enc.Header()
		res, derr := enc.Decode()
		body, jerr := enc.AppendJSON(nil, 7)
		batch, berr := DecodeBatchResponse(codec.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocFactor*len(data)+allocSlack) {
			t.Fatalf("%d input bytes made the readers allocate %d", len(data), grew)
		}
		for i := 0; i < 2; i++ {
			again, err := enc.AppendJSON(nil, 7)
			if !bytes.Equal(again, body) || (err == nil) != (jerr == nil) || (err != nil && err.Error() != jerr.Error()) {
				t.Fatalf("AppendJSON read %d: %q, %v; first read: %q, %v", i+2, again, err, body, jerr)
			}
		}

		if berr == nil {
			for _, m := range batch {
				if m.Err == nil {
					m.Result.Header()
				}
			}
		}
		var unencodable *FeatureValueError
		if derr != nil {
			if jerr == nil {
				t.Fatalf("AppendJSON accepted what Decode rejects (%v)", derr)
			}
			return
		}
		if herr != nil {
			t.Fatalf("Decode accepted what Header rejects (%v)", herr)
		}
		if h.SampleMisses != res.SampleMisses || h.FeatureMisses != res.FeatureMisses || h.Lookups != res.Lookups ||
			h.Degraded != res.Degraded || h.StalenessNS != res.StalenessNS {
			t.Fatalf("header %+v disagrees with result %+v", h, res)
		}
		again, err := encodeResult(res).Decode()
		if err != nil || !sameResult(res, again) {
			t.Fatalf("AppendResult(Decode(x)) does not round-trip (%v):\n%+v\n%+v", err, res, again)
		}
		want, oerr := reflectiveJSON(res, 7)
		switch {
		case oerr != nil:
			if !errors.As(jerr, &unencodable) {
				t.Fatalf("encoding/json refuses (%v), AppendJSON says %v", oerr, jerr)
			}
		case jerr != nil:
			t.Fatalf("AppendJSON rejected what Decode accepts: %v", jerr)
		case !bytes.Equal(body, want):
			t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", body, want)
		}
	})
}

// FuzzRestore feeds arbitrary bytes to the snapshot decoder — the image a
// restarting worker reads off its disk. It must never panic or allocate out
// of proportion to the input, and a cache it restores must come back the
// same through a snapshot and a second restore.
//
//	go test ./internal/serving -run '^$' -fuzz FuzzRestore -fuzztime 10s
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	seed, _ := newCache(kvstore.Options{})
	seed.setSamples(cellKey{3, 7}, &sampleCell{touch: 9, refs: []wire.SampleRef{{Neighbor: 8, Ts: -1, Weight: 0.5}}})
	seed.setSamples(cellKey{4, 1 << 40}, &sampleCell{touch: -2})
	seed.setFeature(7, &featureCell{touch: 1, vals: []float32{1, 2}})
	seed.setFeature(8, &featureCell{})
	f.Add(image(f, seed, 42))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each cell costs its decoded payload (at most 4x its bytes), the
		// cell and a map slot: well under this per input byte.
		const allocFactor, allocSlack = 256, 64 << 10
		c, _ := newCache(kvstore.Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pin, err := c.restore(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocFactor*len(data)+allocSlack) {
			t.Fatalf("%d input bytes made restore allocate %d", len(data), grew)
		}
		if err != nil {
			return
		}
		img := image(t, c, pin)
		again, _ := newCache(kvstore.Options{})
		pin2, err := again.restore(img)
		if err != nil {
			t.Fatalf("restoring a snapshot of a restored cache: %v", err)
		}
		want, got := records(t, img), records(t, image(t, again, pin2))
		if pin2 != pin || len(got) != len(want) || again.entries.Load() != c.entries.Load() || again.bytes.Load() != c.bytes.Load() {
			t.Fatalf("restore → snapshot → restore: pin %d → %d, %d → %d records, %d → %d entries",
				pin, pin2, len(want), len(got), c.entries.Load(), again.entries.Load())
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("cell %x: %x after the round trip, %x before", k, got[k], v)
			}
		}
	})
}

// image is c's snapshot image.
func image(tb testing.TB, c *cache, pin int64) []byte {
	tb.Helper()
	cw := codec.NewWriter(256)
	if err := c.snapshot(cw, pin); err != nil {
		tb.Fatal(err)
	}
	return cw.Bytes()
}

// records reads an image's cells, key → value.
func records(tb testing.TB, img []byte) map[string]string {
	tb.Helper()
	r := codec.NewReader(img)
	_, _ = r.String(), r.Varint() // magic, pin
	out := map[string]string{}
	for r.Byte() == 1 {
		k := string(r.Bytes32())
		out[k] = string(r.Bytes32())
	}
	if err := r.Finish(); err != nil {
		tb.Fatalf("image: %v", err)
	}
	return out
}
