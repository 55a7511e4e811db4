package sampler

import (
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/sampling"
	"helios/internal/wire"
)

// drainQueue collects and decodes every message currently in the serving
// partition.
func drainQueue(t *testing.T, b *mq.Broker, from int64) ([]wire.Message, int64) {
	t.Helper()
	topic, ok := b.Topic(wire.TopicSamples)
	if !ok {
		t.Fatal("samples topic missing")
	}
	c := topic.OpenConsumer(0, from)
	var out []wire.Message
	for {
		recs, err := c.Poll(256, 0)
		if err != nil || len(recs) == 0 {
			return out, c.Offset()
		}
		for _, rec := range recs {
			m, err := wire.Decode(rec.Value)
			if err != nil {
				t.Fatalf("bad message: %v", err)
			}
			out = append(out, m)
		}
	}
}

func ingestVertex(t *testing.T, b *mq.Broker, m int, v graph.Vertex) {
	t.Helper()
	topic, _ := b.Topic(wire.TopicUpdates)
	u := graph.NewVertexUpdate(v)
	u.Ingested = time.Now().UnixNano()
	part := graph.NewPartitioner(m)
	if _, err := topic.Append(part.Of(v.ID), uint64(v.ID), codec.EncodeUpdate(u)); err != nil {
		t.Fatal(err)
	}
}

// TestFeatureUpdatePropagation: a vertex feature refresh for a subscribed
// seed must be pushed to its serving worker, both when the feature arrives
// after the subscription and when it is refreshed later.
func TestFeatureUpdatePropagation(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	w.Start()
	defer w.Stop()

	// An edge creates the hop-1 reservoir for vertex 1 → implicit feature
	// subscription.
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: 0, Ts: 1})
	drainQuiesce(t, b, w)
	_, off := drainQueue(t, b, 0)

	// Now the feature arrives: it must be forwarded.
	ingestVertex(t, b, 1, graph.Vertex{ID: 1, Type: 0, Feature: []float32{1, 2}})
	drainQuiesce(t, b, w)
	msgs, off := drainQueue(t, b, off)
	found := false
	for _, m := range msgs {
		if m.Kind == wire.KindFeatureUpdate && m.Vertex == 1 && len(m.Feature) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("feature update not forwarded: %v", msgs)
	}

	// A refresh is forwarded again.
	ingestVertex(t, b, 1, graph.Vertex{ID: 1, Type: 0, Feature: []float32{9, 9}})
	drainQuiesce(t, b, w)
	msgs, _ = drainQueue(t, b, off)
	found = false
	for _, m := range msgs {
		if m.Kind == wire.KindFeatureUpdate && m.Vertex == 1 && m.Feature[0] == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("feature refresh not forwarded")
	}
}

// TestInDirectionHop: a query walking In-edges keys reservoirs on the
// destination vertex.
func TestInDirectionHop(t *testing.T) {
	s := graph.NewSchema()
	user := s.AddVertexType("User")
	item := s.AddVertexType("Item")
	click := s.AddEdgeType("Click", user, item)
	q, err := query.NewBuilder(s, "Item").In("Click", 2, sampling.TopK).Build("rev")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.Decompose(0, q, s)
	if err != nil {
		t.Fatal(err)
	}
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w, err := New(Config{
		ID: 0, NumSamplers: 1, NumServers: 1,
		Plans: []*query.Plan{plan}, Schema: s, Broker: b, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()

	// Users 10 and 11 click item 5: item 5's In-reservoir holds both.
	ingestEdge(t, b, 1, graph.Edge{Src: 10, Dst: 5, Type: click, Ts: 1})
	ingestEdge(t, b, 1, graph.Edge{Src: 11, Dst: 5, Type: click, Ts: 2})
	drainQuiesce(t, b, w)
	w.Stop() // join the actors before inspecting their shards

	st := w.shardOf(5)
	re := st.reservoirs[plan.OneHops[0].ID][5]
	if re == nil || re.res.Len() != 2 {
		t.Fatalf("In-direction reservoir missing or wrong: %+v", re)
	}
	got := map[graph.VertexID]bool{}
	for _, smp := range re.res.Items() {
		got[smp.Neighbor] = true
	}
	if !got[10] || !got[11] {
		t.Fatalf("In-direction samples = %v", got)
	}
}

// TestWorkerTTLSweepEmitsEvictions: expired reservoirs push SampleEvict to
// their subscribers. The worker takes a fake clock, so the test advances
// time past the TTL and triggers the sweep directly instead of sleeping.
func TestWorkerTTLSweepEmitsEvictions(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	s, _ := testSchema()
	fake := clock.NewFake()
	w, err := New(Config{
		ID: 0, NumSamplers: 1, NumServers: 1,
		Plans: []*query.Plan{testPlan(t, s)}, Schema: s, Broker: b,
		TTL: time.Hour, Seed: 1, Clock: fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: 0, Ts: 1})
	drainQuiesce(t, b, w)

	fake.Advance(2 * time.Hour)
	w.Sweep()
	drainQuiesce(t, b, w)
	if w.Stats().Expired == 0 {
		t.Fatal("TTL sweep never expired the reservoir")
	}
	msgs, _ := drainQueue(t, b, 0)
	foundEvict := false
	for _, m := range msgs {
		if m.Kind == wire.KindSampleEvict && m.Vertex == 1 {
			foundEvict = true
		}
	}
	if !foundEvict {
		t.Fatal("no SampleEvict published for the expired reservoir")
	}
}

// TestSweepReleasesSeedFeatureSubscription: creating a hop-0 reservoir
// takes its seed's feature subscription, so the sweep that deletes the
// reservoir must give it back. Otherwise the serving owner keeps getting
// the seed's features with no sample cell to use them, and every
// expire/re-admit cycle leaves the refcount one higher.
func TestSweepReleasesSeedFeatureSubscription(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	s, _ := testSchema()
	fake := clock.NewFake()
	w, err := New(Config{
		ID: 0, NumSamplers: 1, NumServers: 1,
		Plans: []*query.Plan{testPlan(t, s)}, Schema: s, Broker: b,
		TTL: time.Hour, Seed: 1, Clock: fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: 0, Ts: 1})
	drainQuiesce(t, b, w)

	// The feature is fresh, the edge is not: the sweep drops only the
	// reservoir.
	fake.Advance(2 * time.Hour)
	ingestVertex(t, b, 1, graph.Vertex{ID: 1, Type: 0, Feature: []float32{1}})
	drainQuiesce(t, b, w)
	w.Sweep()
	drainQuiesce(t, b, w)
	_, from := drainQueue(t, b, 0)

	ingestVertex(t, b, 1, graph.Vertex{ID: 1, Type: 0, Feature: []float32{2}})
	drainQuiesce(t, b, w)
	msgs, _ := drainQueue(t, b, from)
	for _, m := range msgs {
		if m.Kind == wire.KindFeatureUpdate && m.Vertex == 1 {
			t.Errorf("feature of swept seed 1 still published to its serving worker: %+v", m)
		}
	}

	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 3, Type: 0, Ts: 2})
	drainQuiesce(t, b, w)
	if got := w.shardOf(1).featSubs[1][0]; got != 1 {
		t.Errorf("featSubs[1][0] = %d after expire and re-admit, want 1", got)
	}
}

// TestPoisonedUpdateSkipped: a corrupt record on the updates topic must not
// stall the stream.
func TestPoisonedUpdateSkipped(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	w.Start()
	defer w.Stop()
	topic, _ := b.Topic(wire.TopicUpdates)
	if _, err := topic.Append(0, 0, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: 0, Ts: 1})
	drainQuiesce(t, b, w)
	st := w.Stats()
	// The FIN test query has two hops on the same edge type, so one valid
	// edge produces two offers; the poison record must be skipped entirely.
	if st.UpdatesProcessed != 1 || st.Admissions != 2 {
		t.Fatalf("poison handling wrong: %+v", st)
	}
}

// TestNegativeSubDeltaClamped: a reordered teardown (-1 before the +1)
// must clamp at zero rather than corrupting the refcount.
func TestNegativeSubDeltaClamped(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	s, _ := testSchema()
	plan := testPlan(t, s)
	w, err := New(Config{
		ID: 0, NumSamplers: 1, NumServers: 1,
		Plans: []*query.Plan{plan}, Schema: s, Broker: b, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	subs, _ := b.Topic(wire.TopicSubs)
	hop2 := plan.OneHops[1].ID
	// -1 arrives first (reordered), then +1: net effect must be one live
	// subscription, not zero.
	minus := wire.Encode(&wire.Message{Kind: wire.KindSubDelta, Hop: hop2, Vertex: 7, SEW: 0, Delta: -1})
	plus := wire.Encode(&wire.Message{Kind: wire.KindSubDelta, Hop: hop2, Vertex: 7, SEW: 0, Delta: 1})
	subs.Append(0, 7, minus)
	subs.Append(0, 7, plus)
	drainQuiesce(t, b, w)
	w.Stop() // join the actors before inspecting their shards
	st := w.shardOf(7)
	if got := st.sampleSubs[hop2][7][0]; got != 1 {
		t.Fatalf("refcount = %d after reordered deltas, want 1", got)
	}
}
