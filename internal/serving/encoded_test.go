package serving

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/obs"
)

// The reflective encoder the gateway used before AppendJSON replaced it,
// kept as the differential oracle: the struct, its tags and the copy loops
// are the deleted handler's, unchanged.

type resultJSON struct {
	Layers   [][]uint64           `json:"layers"`
	Edges    []edgeOutJSON        `json:"edges"`
	Features map[string][]float32 `json:"features"`
	Misses   int                  `json:"misses"`
	Trace    string               `json:"trace,omitempty"`
}

type edgeOutJSON struct {
	Hop    int    `json:"hop"`
	Parent uint64 `json:"parent"`
	Child  uint64 `json:"child"`
	Ts     int64  `json:"ts"`
}

// reflectiveJSON encodes a decoded result the way the old handler did
// (trace 0 leaves the member out, as omitempty does an empty string).
func reflectiveJSON(res *Result, trace uint64) ([]byte, error) {
	out := resultJSON{
		Features: make(map[string][]float32),
		Misses:   res.SampleMisses + res.FeatureMisses,
	}
	if trace != 0 {
		out.Trace = strconv.FormatUint(trace, 16)
	}
	for _, layer := range res.Layers {
		l := make([]uint64, len(layer))
		for i, v := range layer {
			l[i] = uint64(v)
		}
		out.Layers = append(out.Layers, l)
	}
	for _, e := range res.Edges {
		out.Edges = append(out.Edges, edgeOutJSON{
			Hop: e.Hop, Parent: uint64(e.Parent), Child: uint64(e.Child), Ts: int64(e.Ts),
		})
	}
	for v, feat := range res.Features {
		out.Features[strconv.FormatUint(uint64(v), 10)] = feat
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

func encodeResult(res *Result) Encoded {
	w := codec.NewWriter(1 << 10)
	AppendResult(w, res)
	return w.Bytes()
}

// sameResult is reflect.DeepEqual with floats compared by bit pattern, so
// NaN components and -0 count as themselves.
func sameResult(a, b *Result) bool {
	if a.SampleMisses != b.SampleMisses || a.FeatureMisses != b.FeatureMisses || a.Lookups != b.Lookups ||
		len(a.Stages) != len(b.Stages) || len(a.Layers) != len(b.Layers) ||
		len(a.Edges) != len(b.Edges) || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			return false
		}
	}
	for i := range a.Layers {
		if len(a.Layers[i]) != len(b.Layers[i]) {
			return false
		}
		for j := range a.Layers[i] {
			if a.Layers[i][j] != b.Layers[i][j] {
				return false
			}
		}
	}
	for i := range a.Edges {
		x, y := a.Edges[i], b.Edges[i]
		if math.Float32bits(x.Weight) != math.Float32bits(y.Weight) {
			return false
		}
		x.Weight, y.Weight = 0, 0
		if x != y {
			return false
		}
	}
	for v, fa := range a.Features {
		fb, ok := b.Features[v]
		if !ok || len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if math.Float32bits(fa[i]) != math.Float32bits(fb[i]) {
				return false
			}
		}
	}
	return true
}

// awkwardFloats are the values where encoding/json's float32 rule changes
// notation or a naive formatter goes wrong.
var awkwardFloats = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 1.5, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e-9, 1e-10,
	1e20, 9.9999994e20, 1e21, -1e21, 3e38, math.MaxFloat32, -math.MaxFloat32,
	math.SmallestNonzeroFloat32, 1e-45, 1.1754942e-38, 1.17549435e-38, 16777216, 123456.79, 0.33333334,
}

// awkwardIDs straddle every decimal length boundary that matters to the
// key-string order, up to the largest uint64.
var awkwardIDs = []graph.VertexID{
	0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 1000, 999999999999999999, 1000000000000000000,
	1844674407370955161, 9999999999999999999, 10000000000000000000, 18446744073709551610,
	18446744073709551615, 1 << 63, 1<<63 - 1,
}

func randomID(rng *rand.Rand) graph.VertexID {
	switch rng.Intn(4) {
	case 0:
		return awkwardIDs[rng.Intn(len(awkwardIDs))]
	case 1:
		return graph.VertexID(rng.Uint64())
	default:
		// Small ids collide often: duplicate vertices across hops.
		return graph.VertexID(rng.Intn(40))
	}
}

func randomFloat(rng *rand.Rand) float32 {
	switch rng.Intn(3) {
	case 0:
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	case 1:
		f := math.Float32frombits(rng.Uint32())
		if f != f || math.IsInf(float64(f), 0) {
			return 0.5
		}
		return f
	default:
		return rng.Float32()*2 - 1
	}
}

// randomResult draws a Result in the shape a decoded one has (an empty
// feature vector is nil): empty layers, misses, repeated vertices, zero
// and negative timestamps, awkward floats and ids.
func randomResult(rng *rand.Rand) *Result {
	res := &Result{Features: make(map[graph.VertexID][]float32)}
	if rng.Intn(8) > 0 {
		res.Layers = make([][]graph.VertexID, 1+rng.Intn(3))
		for i := range res.Layers {
			res.Layers[i] = make([]graph.VertexID, rng.Intn(6))
			for j := range res.Layers[i] {
				res.Layers[i][j] = randomID(rng)
			}
		}
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		ts := []graph.Timestamp{0, -1, math.MinInt64, math.MaxInt64, graph.Timestamp(rng.Int63())}[rng.Intn(5)]
		res.Edges = append(res.Edges, SampledEdge{
			Hop: rng.Intn(3), Parent: randomID(rng), Child: randomID(rng), Ts: ts, Weight: randomFloat(rng),
		})
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		var feat []float32
		for j, m := 0, rng.Intn(5); j < m; j++ {
			feat = append(feat, randomFloat(rng))
		}
		res.Features[randomID(rng)] = feat
	}
	if rng.Intn(2) == 0 {
		res.SampleMisses, res.FeatureMisses, res.Lookups = rng.Intn(50), rng.Intn(50), rng.Intn(300)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		res.Stages = append(res.Stages, obs.Span{
			Name: []string{obs.StageServingKHop, obs.StageServingFeature, ""}[rng.Intn(3)], Dur: rng.Int63n(1e9) - 1e3,
		})
	}
	return res
}

// TestAppendJSONMatchesReflectiveEncoder is the differential property:
// over seeded random results, the bytes AppendJSON writes from the wire
// form are the bytes encoding/json writes from the decoded Result, the
// header agrees with the Result, and Decode inverts AppendResult.
func TestAppendJSONMatchesReflectiveEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		res := randomResult(rng)
		trace := []uint64{0, 1, rng.Uint64()}[rng.Intn(3)]
		enc := encodeResult(res)

		got, err := enc.Decode()
		if err != nil {
			t.Fatalf("result %d: Decode: %v", i, err)
		}
		if !sameResult(res, got) {
			t.Fatalf("result %d: Decode(AppendResult(res)) differs:\n%+v\n%+v", i, res, got)
		}
		h, err := enc.Header()
		if err != nil {
			t.Fatalf("result %d: Header: %v", i, err)
		}
		var sum int64
		for _, s := range res.Stages {
			sum += s.Dur
		}
		if h.SampleMisses != res.SampleMisses || h.FeatureMisses != res.FeatureMisses || h.Lookups != res.Lookups ||
			h.StageNS != sum ||
			len(h.Spans(0)) != len(res.Stages) {
			t.Fatalf("result %d: header %+v disagrees with %+v", i, h, res)
		}
		want, err := reflectiveJSON(got, trace)
		if err != nil {
			t.Fatalf("result %d: oracle: %v", i, err)
		}
		body, err := enc.AppendJSON(nil, trace)
		if err != nil {
			t.Fatalf("result %d: AppendJSON: %v", i, err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("result %d: AppendJSON differs from encoding/json:\n got %s\nwant %s", i, body, want)
		}
	}
}

// TestAppendFloat32MatchesEncodingJSON sweeps the float rule alone, where
// a difference would otherwise hide behind a random draw.
func TestAppendFloat32MatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(f float32) {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat32(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("%b: got %s, encoding/json writes %s", f, got, want)
		}
	}
	for _, f := range awkwardFloats {
		check(f)
		check(-f)
		check(math.Nextafter32(f, 0))
		check(math.Nextafter32(f, math.MaxFloat32))
	}
	for i := 0; i < 200000; i++ {
		if f := math.Float32frombits(rng.Uint32()); f == f && !math.IsInf(float64(f), 0) {
			check(f)
		}
	}
}

// TestFeatureKeyOrder checks (decimalOrder, id) against the order of the
// decimal strings themselves.
func TestFeatureKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := make([]uint64, 0, len(awkwardIDs)+2000)
	for _, id := range awkwardIDs {
		ids = append(ids, uint64(id))
	}
	for i := 0; i < 2000; i++ {
		ids = append(ids, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for i := 0; i < 200000; i++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		sa, sb := strconv.FormatUint(a, 10), strconv.FormatUint(b, 10)
		want := 0
		if sa < sb {
			want = -1
		} else if sa > sb {
			want = 1
		}
		got := byKeyString(featureRef{order: decimalOrder(a), id: a}, featureRef{order: decimalOrder(b), id: b})
		if got != want {
			t.Fatalf("%d vs %d: got %d, strings compare %d", a, b, got, want)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the reflective encoder")

// goldenResult is a [25,10] answer built from closed forms, so the golden
// body depends on no random source: seed 7, 25 first-hop and 250
// second-hop vertices, every distinct vertex with a 10-float feature.
func goldenResult() *Result {
	res := &Result{
		Layers:   [][]graph.VertexID{{7}, nil, nil},
		Features: make(map[graph.VertexID][]float32),
		Lookups:  26, SampleMisses: 1, FeatureMisses: 2,
		Stages: []obs.Span{{Name: obs.StageServingKHop, Dur: 81000}, {Name: obs.StageServingFeature, Dur: 27000}},
	}
	for i := 0; i < 25; i++ {
		c := graph.VertexID(1000 + 37*i)
		res.Layers[1] = append(res.Layers[1], c)
		res.Edges = append(res.Edges, SampledEdge{Hop: 0, Parent: 7, Child: c, Ts: graph.Timestamp(1_700_000_000_000 + int64(i)), Weight: 1})
	}
	for i, p := range res.Layers[1] {
		for j := 0; j < 10; j++ {
			c := graph.VertexID(50000 + (i*131+j*977)%4001)
			res.Layers[2] = append(res.Layers[2], c)
			res.Edges = append(res.Edges, SampledEdge{Hop: 1, Parent: p, Child: c, Ts: graph.Timestamp(1_600_000_000_000 - int64(i*10+j)), Weight: 0.5})
		}
	}
	for _, layer := range res.Layers {
		for _, v := range layer {
			feat := make([]float32, 10)
			for k := range feat {
				feat[k] = float32(int64(v)*31+int64(k)*17-40000) / 4096
			}
			res.Features[v] = feat
		}
	}
	return res
}

// TestAppendJSONGolden pins one whole [25,10] body — member order,
// number formats, key order, trailing newline — against a committed file
// written by the reflective encoder (-update rewrites it).
func TestAppendJSONGolden(t *testing.T) {
	const trace = 0x5eed0021
	path := filepath.Join("testdata", "sample_25x10.golden.json")
	enc := encodeResult(goldenResult())
	if *updateGolden {
		res, err := enc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		body, err := reflectiveJSON(res, trace)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.AppendJSON(nil, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("body differs from %s (%d vs %d bytes)", path, len(got), len(want))
	}
}

// TestEncodedViewZeroAlloc is the runtime twin of the //lint:hotpath marks
// on the view: transcoding a [25,10] answer into a warmed buffer, and
// reading its header, allocate nothing.
func TestEncodedViewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	enc := encodeResult(goldenResult())
	buf, err := enc.AppendJSON(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if buf, err = enc.AppendJSON(buf[:0], 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendJSON into a warmed buffer: %v allocs/op, want 0", allocs)
	}
	var stageNS int64
	if allocs := testing.AllocsPerRun(100, func() {
		h, err := enc.Header()
		if err != nil {
			t.Fatal(err)
		}
		stageNS += h.StageNS
	}); allocs != 0 {
		t.Fatalf("Header: %v allocs/op, want 0", allocs)
	}
}

// TestDecodeAllocations: decoding the [25,10] answer shares one backing
// array among all 276 features, each slice capped at its own length so an
// append to one cannot overwrite the next — a handful of allocations where
// there was one per feature (about 285 in all).
func TestDecodeAllocations(t *testing.T) {
	enc := encodeResult(goldenResult())
	res, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for v, f := range res.Features {
		if cap(f) != len(f) {
			t.Fatalf("feature of %d: len %d, cap %d", v, len(f), cap(f))
		}
	}
	if raceEnabled {
		return // race detector instrumentation allocates
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := enc.Decode(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding a [25,10] answer: %v allocations", allocs)
	if allocs > 10 {
		t.Fatalf("decoding a [25,10] answer: %v allocations, want at most 10", allocs)
	}
}

// TestAppendJSONRejectsNonFinite: JSON has no NaN or infinity, and
// encoding/json fails on them too — the caller must learn which vertex.
func TestAppendJSONRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		res := &Result{
			Layers:   [][]graph.VertexID{{3}},
			Features: map[graph.VertexID][]float32{3: {1, 2}, 41: {0.5, bad}},
		}
		dst := []byte("kept")
		out, err := encodeResult(res).AppendJSON(dst, 9)
		var fe *FeatureValueError
		if !errors.As(err, &fe) || fe.Vertex != 41 {
			t.Fatalf("%v: err = %v, want a FeatureValueError for vertex 41", bad, err)
		}
		if string(out) != "kept" {
			t.Fatalf("%v: dst came back as %q", bad, out)
		}
		if _, err := reflectiveJSON(res, 9); err == nil {
			t.Fatalf("%v: the oracle encodes it", bad)
		}
	}
}

// TestCorruptCountsFailCleanly substitutes a length of 2^63 — negative
// once converted to int — for every zero byte of a small encoding in turn,
// which reaches every count in the result and batch layouts. Each reader
// must return (an error, or a result that did not need that count), never
// panic sizing an allocation from it.
func TestCorruptCountsFailCleanly(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<63)
	res := &Result{Layers: [][]graph.VertexID{{}}, Edges: []SampledEdge{{}}, Features: map[graph.VertexID][]float32{0: nil}, Stages: []obs.Span{{}}}
	w := codec.NewWriter(64)
	AppendResult(w, res)
	single := append([]byte(nil), w.Bytes()...)
	w.Reset()
	AppendBatchResults(w, []Response{{Result: single}, {Err: errors.New("")}})
	batch := append([]byte(nil), w.Bytes()...)
	w.Reset()
	AppendBatchRequest(w, []BatchItem{{}})
	request := append([]byte(nil), w.Bytes()...)

	corrupt := func(valid []byte, read func([]byte)) {
		for i, b := range valid {
			if b != 0 {
				continue
			}
			bad := append(append(append([]byte(nil), valid[:i]...), huge...), valid[i+1:]...)
			read(bad)
		}
	}
	corrupt(single, func(bad []byte) {
		Encoded(bad).Header()
		Encoded(bad).Decode()
		Encoded(bad).AppendJSON(nil, 0)
	})
	corrupt(batch, func(bad []byte) { DecodeBatchResults(codec.NewReader(bad)) })
	corrupt(request, func(bad []byte) { DecodeBatchRequest(codec.NewReader(bad), nil) })

	// The layer length itself, which is what crashed: an empty header, then
	// one layer of 2^63 vertices, no edges, no features.
	w.Reset()
	w.Raw(make([]byte, 6))
	w.Uvarint(1)
	w.Uvarint(1 << 63)
	w.Uvarint(0)
	w.Uvarint(0)
	bad := Encoded(w.Bytes())
	if _, err := bad.Decode(); err == nil {
		t.Fatal("a layer of 2^63 vertices decoded")
	}
	if _, err := bad.AppendJSON(nil, 0); err == nil {
		t.Fatal("a layer of 2^63 vertices transcoded")
	}
}

// clearFeatureText forgets every row's and cell's text, and that any was
// ever seen.
func clearFeatureText() {
	for i := range textMemo {
		textMemo[i].Store(nil)
	}
	for i := range textSeen {
		textSeen[i].Store(0)
	}
	memoBytes.Store(0)
}

// BenchmarkReflectiveJSON is the path AppendJSON replaced (decode, copy
// into resultJSON, encoding/json), for scale beside BenchmarkAppendJSON.
func BenchmarkReflectiveJSON(b *testing.B) {
	enc := encodeResult(goldenResult())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := enc.Decode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reflectiveJSON(res, 1); err != nil {
			b.Fatal(err)
		}
	}
}
