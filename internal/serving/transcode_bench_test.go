package serving

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/wire"
)

// The transcode's own cost, on the answers the worker sends: features in
// key-string order. The golden's ids have 1–5 digits; wideResult moves it
// to the harness's 13-digit ids (workload.VertexIDFor counts from 2^40).
//
//	go test -run '^$' -bench 'JSON$' -benchmem ./internal/serving

// encodeOrdered is encodeResult with the features in key-string order, as
// Worker.assemble writes them; AppendResult's map order is the fallback.
func encodeOrdered(res *Result) Encoded {
	ids := make([]graph.VertexID, 0, len(res.Features))
	for v := range res.Features {
		ids = append(ids, v)
	}
	slices.SortFunc(ids, func(a, b graph.VertexID) int {
		return strings.Compare(strconv.FormatUint(uint64(a), 10), strconv.FormatUint(uint64(b), 10))
	})
	return encodeFeaturesIn(res, ids...)
}

// encodeFeaturesIn is encodeResult with res's features written in the
// order ids gives, repeats included (an id res has no row for gets an empty
// one).
func encodeFeaturesIn(res *Result, ids ...graph.VertexID) Encoded {
	w := codec.NewWriter(1 << 10)
	AppendResult(w, &Result{Layers: res.Layers, Edges: res.Edges, Lookups: res.Lookups,
		SampleMisses: res.SampleMisses, FeatureMisses: res.FeatureMisses, Stages: res.Stages})
	out := w.Bytes()
	w = codec.NewWriter(len(out) + 64*len(ids))
	w.Raw(out[:len(out)-1]) // drop the empty feature count
	w.Uvarint(uint64(len(ids)))
	for _, v := range ids {
		w.Uvarint(uint64(v))
		w.Float32s(res.Features[v])
	}
	return w.Bytes()
}

// wideResult is the golden answer with every vertex id moved up by 2^40.
func wideResult() *Result {
	const base = graph.VertexID(1) << 40
	res := goldenResult()
	for _, layer := range res.Layers {
		for i := range layer {
			layer[i] += base
		}
	}
	for i := range res.Edges {
		res.Edges[i].Parent += base
		res.Edges[i].Child += base
	}
	feats := make(map[graph.VertexID][]float32, len(res.Features))
	for v, f := range res.Features {
		feats[v+base] = f
	}
	res.Features = feats
	return res
}

var transcodeCases = []struct {
	name   string
	answer func() *Result
}{
	{"golden", goldenResult},
	{"ids2e40", wideResult},
}

// benchTranscode transcodes enc into a reused buffer b.N times, calling
// before (timer stopped) ahead of each.
func benchTranscode(b *testing.B, enc Encoded, before func(i int)) {
	buf, err := enc.AppendJSON(nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if before != nil {
			b.StopTimer()
			before(i)
			b.StartTimer()
		}
		buf, _ = enc.AppendJSON(buf[:0], 1)
	}
}

// BenchmarkAppendJSON is the warm transcode: every answer read before.
func BenchmarkAppendJSON(b *testing.B) {
	for _, c := range transcodeCases {
		b.Run(c.name, func(b *testing.B) { benchTranscode(b, encodeOrdered(c.answer()), nil) })
	}
}

// BenchmarkColdAppendJSON clears the memo before every transcode: every
// row and cell is formatted.
func BenchmarkColdAppendJSON(b *testing.B) {
	for _, c := range transcodeCases {
		b.Run(c.name, func(b *testing.B) {
			benchTranscode(b, encodeOrdered(c.answer()), func(int) { clearFeatureText() })
		})
	}
}

// BenchmarkChurnAppendJSON replaces the hop-0 cell before every transcode
// (its first edge's weight takes a value it never had), so one cell is a
// miss each time and the rest of the answer is warm.
func BenchmarkChurnAppendJSON(b *testing.B) {
	enc := encodeOrdered(wideResult())
	at := firstWeight(b, enc)
	benchTranscode(b, enc, func(i int) {
		binary.LittleEndian.PutUint32(enc[at:], math.Float32bits(float32(i+2)))
	})
}

// firstWeight is the offset of the first edge's weight in enc.
func firstWeight(tb testing.TB, enc Encoded) int {
	r := codec.NewReader(enc)
	readHeader(r)
	for i, nl := 0, r.Count(minLayer); i < nl; i++ {
		for j, n := 0, r.Count(minVertex); j < n; j++ {
			r.Uvarint()
		}
	}
	if r.Count(minEdge) == 0 {
		tb.Fatal("no edges")
	}
	r.Uvarint()
	r.Uvarint()
	r.Uvarint()
	r.Varint()
	if r.Err() != nil {
		tb.Fatal(r.Err())
	}
	return len(enc) - r.Remaining()
}

// BenchmarkSampleJSON is one [25,10] answer at random 13-digit ids from
// cache to gateway text: Worker.assemble into a reused assembly, then
// AppendJSON.
func BenchmarkSampleJSON(b *testing.B) {
	plan := ledgerPlan(b)
	br := mq.NewBroker(mq.Options{})
	defer br.Close()
	w, err := New(Config{ID: 0, NumServers: 1, Plans: []*query.Plan{plan}, Broker: br, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	const base = graph.VertexID(1) << 40
	rng := rand.New(rand.NewSource(1))
	cell := func(hop int, v graph.VertexID, n int) []wire.SampleRef {
		refs := make([]wire.SampleRef, n)
		for i := range refs {
			refs[i] = wire.SampleRef{Neighbor: base + graph.VertexID(rng.Intn(1_000_000)), Ts: graph.Timestamp(1_700_000_000_000 + i)}
			w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: refs[i].Neighbor,
				Feature: []float32{float32(i) / 3, 0.25, -1.5, float32(v % 1000), 1e-7, 2, 3, 4, 5, 6}})
		}
		w.applyMessage(0, wire.Message{Kind: wire.KindSampleUpsert, Hop: plan.OneHops[hop].ID, Vertex: v, Samples: refs})
		return refs
	}
	seed := base + 7
	w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: seed, Feature: make([]float32, 10)})
	for _, s := range cell(0, seed, 25) {
		cell(1, s.Neighbor, 10)
	}
	a := getAssembly()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset()
		if err := w.assemble(a, 0, seed, 0, 0); err != nil {
			b.Fatal(err)
		}
		if buf, err = a.finish().AppendJSON(buf[:0], 1); err != nil {
			b.Fatal(err)
		}
	}
}
