package serving

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/sampling"
	"helios/internal/wire"
)

func testPlan(t *testing.T) *query.Plan {
	t.Helper()
	s := graph.NewSchema()
	acct := s.AddVertexType("Account")
	s.AddEdgeType("TransferTo", acct, acct)
	q, err := query.NewBuilder(s, "Account").
		Out("TransferTo", 2, sampling.TopK).
		Out("TransferTo", 2, sampling.TopK).
		Build("t")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.Decompose(0, q, s)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func newTestWorker(t *testing.T, b *mq.Broker) *Worker {
	t.Helper()
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:  []*query.Plan{testPlan(t)},
		Broker: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	for i, cfg := range []Config{
		{ID: 0, NumServers: 0, Broker: b},
		{ID: 3, NumServers: 2, Broker: b},
		{ID: -1, NumServers: 2, Broker: b},
		{ID: 0, NumServers: 1, Broker: nil},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
}

func TestKeyEncodings(t *testing.T) {
	k1 := sampleKey(query.MakeHopID(1, 0), 42)
	k2 := sampleKey(query.MakeHopID(1, 1), 42)
	k3 := sampleKey(query.MakeHopID(1, 0), 43)
	if bytes.Equal(k1, k2) || bytes.Equal(k1, k3) {
		t.Fatal("sample keys must be distinct per hop and vertex")
	}
	f1, f2 := featureKey(42), featureKey(43)
	if bytes.Equal(f1, f2) || bytes.Equal(k1, f1) {
		t.Fatal("feature keys must be distinct and disjoint from sample keys")
	}
}

func TestSampleValueCodec(t *testing.T) {
	in := &sampleCell{touch: 12345, refs: []wire.SampleRef{{Neighbor: 5, Ts: -7, Weight: 2.5}, {Neighbor: 9, Ts: 3, Weight: 0}}}
	out, err := decodeSampleCell(in.value())
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("%v %v", out, err)
	}
	feat := &featureCell{touch: 99, vals: []float32{1.5, -2, 0}}
	fout, err := decodeFeatureCell(feat.value())
	if err != nil || !reflect.DeepEqual(feat, fout) {
		t.Fatalf("%v %v", fout, err)
	}
	if _, err := decodeSampleCell([]byte{1}); err == nil {
		t.Fatal("truncated samples should fail")
	}
}

// push applies a wire message synchronously through the update path.
func push(t *testing.T, b *mq.Broker, m *wire.Message) {
	t.Helper()
	topic, ok := b.Topic(wire.TopicSamples)
	if !ok {
		t.Fatal("samples topic missing")
	}
	if _, err := topic.Append(0, uint64(m.Vertex), wire.Encode(m)); err != nil {
		t.Fatal(err)
	}
}

func waitApplied(t *testing.T, w *Worker, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.Stats().Applied >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("only %d of %d messages applied", w.Stats().Applied, n)
}

func TestApplyAndSample(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()

	plan := testPlan(t)
	hop1, hop2 := plan.OneHops[0].ID, plan.OneHops[1].ID
	// Seed 1 → {2,3}; 2 → {4}; 3 → {5}; features for everyone.
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: hop1, Vertex: 1,
		Samples: []wire.SampleRef{{Neighbor: 2, Ts: 10}, {Neighbor: 3, Ts: 11}}, Ingested: time.Now().UnixNano()})
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: hop2, Vertex: 2,
		Samples: []wire.SampleRef{{Neighbor: 4, Ts: 12}}})
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: hop2, Vertex: 3,
		Samples: []wire.SampleRef{{Neighbor: 5, Ts: 13}}})
	for v := graph.VertexID(1); v <= 5; v++ {
		push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: v, Feature: []float32{float32(v)}})
	}
	waitApplied(t, w, 8)

	res, err := w.Sample(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 3 {
		t.Fatalf("layers = %d", len(res.Layers))
	}
	if len(res.Layers[1]) != 2 || len(res.Layers[2]) != 2 {
		t.Fatalf("layer sizes: %d %d", len(res.Layers[1]), len(res.Layers[2]))
	}
	if res.SampleMisses != 0 || res.FeatureMisses != 0 {
		t.Fatalf("misses: %d %d", res.SampleMisses, res.FeatureMisses)
	}
	if res.Features[4][0] != 4 || res.Features[5][0] != 5 {
		t.Fatal("features wrong")
	}
	// Sampled edge metadata must survive the cache round trip.
	for _, e := range res.Edges {
		if e.Hop == 0 && e.Parent == 1 && e.Child == 2 && e.Ts != 10 {
			t.Fatalf("edge ts lost: %+v", e)
		}
	}
	st := w.Stats()
	if st.Served != 1 || st.Applied != 8 {
		t.Fatalf("stats: %+v", st)
	}
	if st.IngestLatency.Count == 0 {
		t.Fatal("ingest latency not measured")
	}
	if w.stKHop.Snapshot().Count != 1 {
		t.Fatal("k-hop assembly not measured")
	}
}

func TestMissesAccounted(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()

	res, err := w.Sample(0, 77)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleMisses != 1 {
		t.Fatalf("cold seed should miss once, got %d", res.SampleMisses)
	}
	if res.FeatureMisses != 1 {
		t.Fatalf("cold seed feature misses = %d", res.FeatureMisses)
	}
}

func TestEvictions(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()
	plan := testPlan(t)
	hop1 := plan.OneHops[0].ID

	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: hop1, Vertex: 1,
		Samples: []wire.SampleRef{{Neighbor: 2}}})
	push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 2, Feature: []float32{1}})
	waitApplied(t, w, 2)
	if !w.HasSample(hop1, 1) || !w.HasFeature(2) {
		t.Fatal("entries missing before eviction")
	}
	push(t, b, &wire.Message{Kind: wire.KindSampleEvict, Hop: hop1, Vertex: 1})
	push(t, b, &wire.Message{Kind: wire.KindFeatureEvict, Vertex: 2})
	waitApplied(t, w, 4)
	if w.HasSample(hop1, 1) || w.HasFeature(2) {
		t.Fatal("entries still present after eviction")
	}
}

func TestTTLSweep(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:  []*query.Plan{testPlan(t)},
		Broker: b,
		TTL:    80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	plan := testPlan(t)
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: plan.OneHops[0].ID, Vertex: 1,
		Samples: []wire.SampleRef{{Neighbor: 2}}})
	waitApplied(t, w, 1)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if !w.HasSample(plan.OneHops[0].ID, 1) {
			return // swept
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("TTL sweep never removed the stale entry")
}

// TestSweepKeepsRefreshedCells: the TTL sweeper judges a cell stale, then
// deletes it, and an apply that refreshes the cell in between must win —
// otherwise the cache differs from the sample table until that cell changes
// again. Applies refresh a key set on a stepping fake clock while sweeps run
// in a loop; after each sweep(cutoff), no key last applied at or after
// cutoff may be missing.
func TestSweepKeepsRefreshedCells(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	clk := clock.NewFake()
	w, err := New(Config{ID: 0, NumServers: 1, Plans: []*query.Plan{testPlan(t)}, Broker: b, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	var applied [keys + 1]atomic.Int64 // clock ns at which each key's last finished apply began
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.Advance(time.Microsecond)
			for v := 1; v <= keys; v++ {
				now := clk.Now().UnixNano()
				w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: graph.VertexID(v), Feature: []float32{1}})
				applied[v].Store(now)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 500; i++ {
		cutoff := clk.Now().UnixNano()
		w.sweep(cutoff)
		for v := 1; v <= keys; v++ {
			if applied[v].Load() >= cutoff && !w.HasFeature(graph.VertexID(v)) {
				t.Fatalf("sweep %d: vertex %d, applied at or after the cutoff, was swept", i, v)
			}
		}
	}
}

func TestCachedSamplesIntrospection(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()
	plan := testPlan(t)
	in := []wire.SampleRef{{Neighbor: 9, Ts: 1, Weight: 2}}
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: plan.OneHops[0].ID, Vertex: 4, Samples: in})
	waitApplied(t, w, 1)
	got := w.CachedSamples(plan.OneHops[0].ID, 4)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("cached samples = %v", got)
	}
	if w.CachedSamples(plan.OneHops[0].ID, 5) != nil {
		t.Fatal("absent cell should be nil")
	}
}

func TestServeBatchServesThroughPool(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()
	out, err := w.ServeBatch(rpc.Ctx{}, []BatchItem{{Query: 0, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := out[0]
	defer r.Release()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Result == nil {
		t.Fatal("pool response malformed")
	}
	// The turn frees the slot after answering.
	waitUntil(t, func() bool { return w.limiter.Inflight() == 0 && w.Stats().ServeDepth == 0 })
}

func TestStopReturnsPromptlyWithLongTTL(t *testing.T) {
	// Regression: the sweeper used to time.Sleep(TTL/4) inside its loop,
	// so Stop blocked until the sleep expired — up to TTL/4.
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:  []*query.Plan{testPlan(t)},
		Broker: b,
		TTL:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	done := make(chan struct{})
	go func() {
		w.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop blocked on the sweeper's TTL/4 sleep")
	}
}

func TestConcurrentStartStop(t *testing.T) {
	// Start/Stop from racing goroutines must neither panic on half-wired
	// pools nor trip the race detector on the started flag.
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w.Start()
				w.Stop()
			}
		}()
	}
	wg.Wait()
	w.Stop()
}

func TestPollSurvivesTransientFault(t *testing.T) {
	defer faultpoint.Reset()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	// Arm before Start so the very first fetches fail; the loop must ride
	// through them rather than die.
	faultpoint.ErrorN("mq.fetch", 3)
	w.Start()
	defer w.Stop()

	hop := testPlan(t).OneHops[0].ID
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: hop, Vertex: 7,
		Samples: []wire.SampleRef{{Neighbor: 8, Ts: 1}}})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if w.HasSample(hop, 7) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("poll loop did not survive the transient fetch fault")
}

// The ingest stamp and the apply clock belong to different hosts: with the
// serving host's clock behind the frontend's, the event-time delta is
// negative. Staleness is clamped once, so the gauge, Stats and the latency
// histogram all agree on 0, never a negative.
func TestStalenessNeverNegative(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	clk := clock.NewFake()
	reg := obs.NewRegistry()
	w, err := New(Config{ID: 0, NumServers: 1, Plans: []*query.Plan{testPlan(t)}, Broker: b, Clock: clk, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ahead := clk.Now().Add(5 * time.Second).UnixNano() // the ingest stamp is from a faster clock
	w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 1, Feature: []float32{1}, Ingested: ahead})

	st := w.Stats()
	if st.StalenessNS != 0 {
		t.Fatalf("Stats().StalenessNS = %d under clock skew, want 0", st.StalenessNS)
	}
	if g := reg.Snapshot().Gauges[obs.Name("serving.staleness_ns", "worker", "0")]; g != 0 {
		t.Fatalf("serving.staleness_ns = %d, want 0", g)
	}
	if st.IngestLatency.Count != 1 || st.IngestLatency.Max != 0 {
		t.Fatalf("ingest latency = %+v, want one sample of 0", st.IngestLatency)
	}

	// An ordinary apply still reports its real delta.
	w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 1, Feature: []float32{1},
		Ingested: clk.Now().Add(-3 * time.Millisecond).UnixNano()})
	if got := w.Stats().StalenessNS; got != (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("StalenessNS = %d, want 3ms", got)
	}
}

// TestPollCountsUndecodableRecords: a sample-queue record that does not
// decode, between two good ones, is counted and skipped; both good ones
// still apply.
func TestPollCountsUndecodableRecords(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()
	push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 1, Feature: []float32{1}})
	topic, _ := b.Topic(wire.TopicSamples)
	if _, err := topic.Append(0, 1, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 2, Feature: []float32{2}})
	waitApplied(t, w, 2)
	if st := w.Stats(); st.Applied != 2 || st.Undecodable != 1 || !w.HasFeature(1) || !w.HasFeature(2) {
		t.Fatalf("%d applied, %d undecodable; want 2 and 1", st.Applied, st.Undecodable)
	}
}
