package gnn

import (
	"math"
	"runtime"
	"testing"

	"helios/internal/codec"
	"helios/internal/serving"
)

// FuzzEmbedRequest drives the model server's whole computation — decode the
// sample, build its tree, run the forward pass — with arbitrary bytes: what
// a model server takes off its socket. It must never panic, must allocate
// within a bound set by the input's length and the encoder's input width,
// and a sample that decodes must embed, and embed again after AppendResult
// re-encodes it, exactly as the local path does.
func FuzzEmbedRequest(f *testing.F) {
	enc := NewEncoder([]int{4, 8, 3}, 7)
	width := enc.Dims[0]
	stray := chainResult(width)
	stray.Edges = append(stray.Edges, serving.SampledEdge{Hop: -1, Parent: 1, Child: 2})
	f.Add([]byte(encodeSample(chainResult(width))))
	f.Add([]byte{})
	f.Add([]byte(encodeSample(stray)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every count is checked against the bytes left, so one input byte
		// is at most one vertex, and each vertex costs the decoder's share
		// plus a zero-filled feature and a forward pass a few widths wide:
		// ~490 B a byte at width 4 for a vertex a byte in a deep tree.
		const allocFactor, allocSlack = 256, 64 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		emb, err := embed(enc, data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocFactor*len(data)*width+allocSlack) {
			t.Fatalf("%d input bytes made the server allocate %d", len(data), grew)
		}
		res, derr := serving.Encoded(data).Decode()
		if (err == nil) != (derr == nil) {
			t.Fatalf("embed error %v, decode error %v", err, derr)
		}
		if derr != nil {
			return
		}
		local := enc.Embed(BuildTree(res, width))
		sameBits(t, "the request", emb, local)
		w := codec.NewWriter(len(data))
		serving.AppendResult(w, res)
		again, err := embed(enc, w.Bytes())
		if err != nil {
			t.Fatalf("re-encoded sample rejected: %v", err)
		}
		sameBits(t, "the re-encoded request", again, local)
	})
}

// embed is the model server's computation on one request, as handleEmbed
// runs it: decode the sample, build its tree at enc's input width, and run
// the forward pass.
func embed(enc *Encoder, sample serving.Encoded) ([]float32, error) {
	res, err := sample.Decode()
	if err != nil {
		return nil, err
	}
	return enc.Embed(BuildTree(res, enc.Dims[0])), nil
}

// sameBits compares embeddings bit for bit, so a NaN feature still matches.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s embeds %d wide, the local path %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s embeds %v, the local path %v", what, got, want)
		}
	}
}
