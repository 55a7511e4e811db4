package serving

import (
	"testing"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/rpc"
	"helios/internal/wire"
)

func TestResultCodecEmpty(t *testing.T) {
	res := &Result{Features: map[graph.VertexID][]float32{}}
	w := codec.NewWriter(64)
	AppendResult(w, res)
	r := codec.NewReader(w.Bytes())
	got, err := DecodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != 0 || len(got.Edges) != 0 || len(got.Features) != 0 {
		t.Fatalf("empty result round trip: %+v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestResultCodecTruncation(t *testing.T) {
	res := &Result{
		Layers:   [][]graph.VertexID{{1}, {2, 3}},
		Edges:    []SampledEdge{{Hop: 0, Parent: 1, Child: 2, Ts: 5}},
		Features: map[graph.VertexID][]float32{2: {1.5}},
		Lookups:  3,
	}
	w := codec.NewWriter(128)
	AppendResult(w, res)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := codec.NewReader(full[:cut])
		if _, err := DecodeResult(r); err == nil && r.Err() == nil && cut < len(full)-1 {
			// A prefix may decode when the cut lands exactly on a field
			// boundary near the tail; require Finish to catch it.
			if r.Finish() == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	}
}

func TestServeRPCRoundTrip(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()
	plan := testPlan(t)
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: plan.OneHops[0].ID, Vertex: 1,
		Samples: []wire.SampleRef{{Neighbor: 2, Ts: 9, Weight: 1}}})
	push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 2, Feature: []float32{7}})
	waitApplied(t, w, 2)

	srv := rpc.NewServer()
	ServeRPC(w, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialServing(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := client.SampleBudget(0, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers[1]) != 1 || res.Layers[1][0] != 2 {
		t.Fatalf("remote result layers: %v", res.Layers)
	}
	if res.Edges[0].Ts != 9 || res.Features[2][0] != 7 {
		t.Fatalf("remote result detail: %+v", res)
	}
	if res.Lookups == 0 {
		t.Fatal("lookups not propagated")
	}

	// Unknown query surfaces as a remote error.
	if _, err := client.SampleBudget(99, 1, 0, 0); err == nil {
		t.Fatal("unknown query should fail over RPC")
	}
}

func TestServeRPCBadPayload(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()
	srv := rpc.NewServer()
	ServeRPC(w, srv)
	addr, _ := srv.Listen("127.0.0.1:0")
	defer srv.Close()
	c, _ := rpc.Dial(addr)
	defer c.Close()
	if _, err := c.Call(MethodSample, nil, time.Second); err == nil {
		t.Fatal("empty payload should fail")
	}
}

func TestApplyUnknownKindIgnored(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()
	// Unknown message kinds (future protocol versions) must not crash the
	// update pool or count as applied.
	w.applyMessage(0, wire.Message{Kind: wire.Kind(99), Vertex: 1})
	if w.Stats().Applied != 0 {
		t.Fatal("unknown kind counted as applied")
	}
}

func TestStopIdempotentAndStartTwice(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	w.Start()
	w.Stop()
	w.Stop()
}
