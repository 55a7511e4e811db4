package serving

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"helios/internal/codec"
)

// FuzzEncodedResult feeds arbitrary bytes to every reader of the result's
// wire form — the bytes a frontend takes off a socket. None may panic or
// allocate out of proportion to the input, and where Decode accepts the
// input the readers must agree with each other: the header with the
// Result, AppendResult with Decode, and AppendJSON with the reflective
// encoder.
//
//	go test ./internal/serving -run '^$' -fuzz FuzzEncodedResult -fuzztime 10s
func FuzzEncodedResult(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(encodeResult(&Result{})))
	f.Add([]byte(encodeResult(goldenResult())))
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
