package sampler

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"helios/internal/actor"
	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/serving"
	"helios/internal/wire"
)

// randomPublishStream draws n messages over a deliberately small set of
// cells, so a drained run is full of rewrites: snapshots and evicts of
// (hop, vertex) cells, features and feature evicts, and subscription
// deltas; about one in ten is traced.
func randomPublishStream(rng *rand.Rand, n int) []wire.Message {
	msgs := make([]wire.Message, n)
	for i := range msgs {
		m := wire.Message{Vertex: graph.VertexID(rng.Intn(6)), Ingested: int64(i + 1)}
		if rng.Intn(10) == 0 {
			m.Trace = uint64(i + 1)
		}
		switch rng.Intn(8) {
		case 0, 1, 2:
			m.Kind, m.Hop = wire.KindSampleUpsert, query.HopID(rng.Intn(2)+1)
			m.Samples = make([]wire.SampleRef, rng.Intn(4))
			for j := range m.Samples {
				m.Samples[j] = wire.SampleRef{Neighbor: graph.VertexID(rng.Intn(100)), Ts: graph.Timestamp(rng.Intn(1000)), Weight: rng.Float32()}
			}
		case 3:
			m.Kind, m.Hop = wire.KindSampleEvict, query.HopID(rng.Intn(2)+1)
		case 4, 5:
			m.Kind, m.Feature = wire.KindFeatureUpdate, []float32{rng.Float32(), rng.Float32()}
		case 6:
			m.Kind = wire.KindFeatureEvict
		default:
			m.Kind, m.Hop, m.Delta = wire.KindSubDelta, query.HopID(rng.Intn(2)+1), int8(1-2*rng.Intn(2))
			if rng.Intn(2) == 0 {
				m.Kind = wire.KindFeatSubDelta
			}
		}
		msgs[i] = m
	}
	return msgs
}

// publishInRuns pushes the stream through w's publish turn, cut into runs
// of the sizes nextRun yields, exactly as the sampling actors would have
// queued it.
func publishInRuns(w *Worker, stream []wire.Message, nextRun func() int) {
	for len(stream) > 0 {
		n := nextRun()
		if n > len(stream) {
			n = len(stream)
		}
		run := make([]outMsg, n)
		for i := range run {
			m := &stream[i]
			run[i] = outMsg{topic: w.samplesTopic, key: uint64(m.Vertex), payload: wire.Encode(m), kind: m.Kind, hop: m.Hop, traced: m.Trace != 0}
			if m.Kind == wire.KindSubDelta || m.Kind == wire.KindFeatSubDelta {
				run[i].topic = w.subsTopic
			}
		}
		w.publishTurn(0, run)
		stream = stream[n:]
	}
}

// recordValues is the value sequence of partition 0 of a topic.
func recordValues(t *testing.T, topic mq.TopicHandle) [][]byte {
	t.Helper()
	var vals [][]byte
	for _, r := range records(t, topic, 0) {
		vals = append(vals, r.Value)
	}
	return vals
}

// servedCache replays b's sample queue into a fresh serving worker on a
// frozen clock and returns the resulting cache, key → stored bytes.
func servedCache(t *testing.T, b *mq.Broker, plan *query.Plan) map[string]string {
	t.Helper()
	sw, err := serving.New(serving.Config{ID: 0, NumServers: 1, Plans: []*query.Plan{plan}, Broker: b, Clock: clock.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	sw.Start()
	defer sw.Stop()
	for deadline := time.Now().Add(10 * time.Second); sw.Lag() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serving worker never caught up: lag %d", sw.Lag())
		}
	}
	// Snapshot barriers through the update pool, so everything polled is
	// applied before the dump.
	var img bytes.Buffer
	if err := sw.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(img.Bytes())
	_, _ = r.String(), r.Varint() // magic, queue pin
	cache := map[string]string{}
	for r.Byte() == 1 {
		k := string(r.Bytes32())
		cache[k] = string(r.Bytes32())
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("snapshot image: %v", err)
	}
	return cache
}

// TestConflationConvergesToSameCache is the safety argument as a property:
// for random streams cut into random runs, the conflated publish path and
// the unconflated one (every message its own run, so nothing to conflate)
// leave byte-identical serving caches — while every subscription delta and
// every traced message still reaches its topic, in order.
func TestConflationConvergesToSameCache(t *testing.T) {
	s, _ := testSchema()
	plan := testPlan(t, s)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := randomPublishStream(rng, 2000)

		plainBroker, conflBroker := mq.NewBroker(mq.Options{}), mq.NewBroker(mq.Options{})
		plain := newPublishWorker(t, plainBroker, 1, 1)
		confl := newPublishWorker(t, conflBroker, 1, 1)
		publishInRuns(plain, stream, func() int { return 1 })
		sizes := []int{1, 2, 3, 17, 64, actor.MaxRun}
		publishInRuns(confl, stream, func() int { return sizes[rng.Intn(len(sizes))] })

		ps, cs := plain.Stats(), confl.Stats()
		if ps.PublishConflated != 0 {
			t.Fatalf("seed %d: runs of one conflated %d messages", seed, ps.PublishConflated)
		}
		if cs.PublishConflated == 0 {
			t.Fatalf("seed %d: nothing was conflated, so the property was not exercised", seed)
		}
		plainSamples, conflSamples := recordValues(t, plain.samplesTopic), recordValues(t, confl.samplesTopic)
		if int64(len(conflSamples)) != int64(len(plainSamples))-cs.PublishConflated {
			t.Fatalf("seed %d: %d cache messages appended, want %d produced - %d conflated",
				seed, len(conflSamples), len(plainSamples), cs.PublishConflated)
		}

		// Sub-deltas are increments: all of them, in the same order.
		plainSubs, conflSubs := recordValues(t, plain.subsTopic), recordValues(t, confl.subsTopic)
		if len(plainSubs) != len(conflSubs) {
			t.Fatalf("seed %d: %d sub-deltas appended with conflation, %d without", seed, len(conflSubs), len(plainSubs))
		}
		for i := range plainSubs {
			if !bytes.Equal(plainSubs[i], conflSubs[i]) {
				t.Fatalf("seed %d: sub-delta %d differs", seed, i)
			}
		}

		// Traced messages are never dropped: the traced subsequence of the
		// sample queue is the same on both sides.
		traced := func(vals [][]byte) [][]byte {
			var out [][]byte
			for _, v := range vals {
				if m, err := wire.Decode(v); err != nil {
					t.Fatal(err)
				} else if m.Trace != 0 {
					out = append(out, v)
				}
			}
			return out
		}
		pt, ct := traced(plainSamples), traced(conflSamples)
		if len(pt) == 0 || len(pt) != len(ct) {
			t.Fatalf("seed %d: %d traced cache messages with conflation, %d without", seed, len(ct), len(pt))
		}
		for i := range pt {
			if !bytes.Equal(pt[i], ct[i]) {
				t.Fatalf("seed %d: traced message %d differs", seed, i)
			}
		}

		want, got := servedCache(t, plainBroker, plan), servedCache(t, conflBroker, plan)
		if len(want) == 0 {
			t.Fatalf("seed %d: reference cache is empty", seed)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d cache entries with conflation, %d without", seed, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("seed %d: cache entry %x differs: %x, want %x", seed, k, got[k], v)
			}
		}
		plainBroker.Close()
		conflBroker.Close()
	}
}

// TestConflationRule pins the rule on a hand-written run: last writer per
// cell wins, whatever its kind; different cells, hops, partitions and the
// feature of the same vertex are different cells; a traced message stays
// even when superseded; sub-deltas are untouched.
func TestConflationRule(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newPublishWorker(t, b, 1, 2)
	msg := func(part int, m wire.Message) outMsg {
		topic := w.samplesTopic
		if m.Kind == wire.KindSubDelta {
			topic = w.subsTopic
			part = 0
		}
		return outMsg{topic: topic, partition: part, key: uint64(m.Vertex), payload: wire.Encode(&m), kind: m.Kind, hop: m.Hop, traced: m.Trace != 0}
	}
	run := []outMsg{
		msg(0, wire.Message{Kind: wire.KindSampleUpsert, Hop: 1, Vertex: 7, Ingested: 1}),          // superseded by #3
		msg(0, wire.Message{Kind: wire.KindSampleUpsert, Hop: 2, Vertex: 7, Ingested: 2}),          // other hop: stays
		msg(1, wire.Message{Kind: wire.KindSampleUpsert, Hop: 1, Vertex: 7, Ingested: 3}),          // other partition: stays
		msg(0, wire.Message{Kind: wire.KindSampleEvict, Hop: 1, Vertex: 7, Ingested: 4, Trace: 9}), // traced: stays though superseded
		msg(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 7, Ingested: 5}),                 // superseded by #7
		msg(0, wire.Message{Kind: wire.KindSubDelta, Hop: 2, Vertex: 7, Delta: 1, Ingested: 6}),    // increment: stays
		msg(0, wire.Message{Kind: wire.KindSubDelta, Hop: 2, Vertex: 7, Delta: 1, Ingested: 7}),    // increment: stays
		msg(0, wire.Message{Kind: wire.KindFeatureEvict, Vertex: 7, Ingested: 8}),                  // last feature word
		msg(0, wire.Message{Kind: wire.KindSampleUpsert, Hop: 1, Vertex: 7, Ingested: 9}),          // last word on (1, 7)
		msg(0, wire.Message{Kind: wire.KindSampleUpsert, Hop: 1, Vertex: 8, Ingested: 10}),         // other vertex: stays
	}
	w.publishTurn(0, run)

	ingested := func(topic mq.TopicHandle, part int) []int64 {
		var out []int64
		for _, r := range records(t, topic, part) {
			m, err := wire.Decode(r.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m.Ingested)
		}
		return out
	}
	check := func(name string, got, want []int64) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: appended %v, want %v", name, got, want)
		}
	}
	check("samples/0", ingested(w.samplesTopic, 0), []int64{2, 4, 8, 9, 10})
	check("samples/1", ingested(w.samplesTopic, 1), []int64{3})
	check("subs/0", ingested(w.subsTopic, 0), []int64{6, 7})
	if st := w.Stats(); st.PublishConflated != 2 {
		t.Fatalf("conflated = %d, want 2", st.PublishConflated)
	}
}
