package sampler

import (
	"slices"
	"sync"
	"testing"
	"time"

	"helios/internal/actor"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/wire"
)

// countingBus wraps a bus so a test can see every append call the publish
// path makes: how many, to which partition, of what size.
type countingBus struct {
	mq.Bus
	mu      sync.Mutex
	batches map[pubKey][]int // per destination, batch sizes in call order
	singles int              // unbatched Append calls
}

type countingTopic struct {
	mq.TopicHandle
	bus *countingBus
}

func newCountingBus(b mq.Bus) *countingBus {
	return &countingBus{Bus: b, batches: make(map[pubKey][]int)}
}

func (c *countingBus) OpenTopic(name string, partitions int) (mq.TopicHandle, error) {
	t, err := c.Bus.OpenTopic(name, partitions)
	if err != nil {
		return nil, err
	}
	return &countingTopic{TopicHandle: t, bus: c}, nil
}

func (t *countingTopic) Append(partition int, key uint64, value []byte) (int64, error) {
	t.bus.mu.Lock()
	t.bus.singles++
	t.bus.mu.Unlock()
	return t.TopicHandle.Append(partition, key, value)
}

func (t *countingTopic) AppendBatch(partition int, recs []mq.BatchRecord) (int64, error) {
	dest := pubKey{topic: t, partition: partition}
	t.bus.mu.Lock()
	t.bus.batches[dest] = append(t.bus.batches[dest], len(recs))
	t.bus.mu.Unlock()
	return t.TopicHandle.AppendBatch(partition, recs)
}

func newPublishWorker(t *testing.T, bus mq.Bus, samplers, servers int) *Worker {
	t.Helper()
	s, _ := testSchema()
	w, err := New(Config{
		ID: 0, NumSamplers: samplers, NumServers: servers,
		Plans: []*query.Plan{testPlan(t, s)}, Schema: s, Broker: bus, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// upsertFor and subDeltaFor build publishable messages whose record key
// (the vertex) doubles as a sequence number for order checks.
func upsertFor(w *Worker, partition int, seq uint64) outMsg {
	m := wire.Message{Kind: wire.KindSampleUpsert, Hop: 1, Vertex: graph.VertexID(seq),
		Samples: []wire.SampleRef{{Neighbor: graph.VertexID(seq + 1), Ts: 1}}}
	return outMsg{topic: w.samplesTopic, partition: partition, key: seq, payload: wire.Encode(&m), kind: m.Kind, hop: m.Hop}
}

func subDeltaFor(w *Worker, partition int, seq uint64) outMsg {
	m := wire.Message{Kind: wire.KindSubDelta, Hop: 2, Vertex: graph.VertexID(seq), SEW: 0, Delta: 1}
	return outMsg{topic: w.subsTopic, partition: partition, key: seq, payload: wire.Encode(&m), kind: m.Kind}
}

// records reads everything appended to one partition, in log order.
func records(t *testing.T, topic mq.TopicHandle, partition int) []mq.Record {
	t.Helper()
	c := topic.OpenConsumer(partition, 0)
	var all []mq.Record
	for {
		recs, err := c.Poll(4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return all
		}
		all = append(all, recs...)
	}
}

// recordKeys is the key sequence of one partition.
func recordKeys(t *testing.T, topic mq.TopicHandle, partition int) []uint64 {
	t.Helper()
	var keys []uint64
	for _, r := range records(t, topic, partition) {
		keys = append(keys, r.Key)
	}
	return keys
}

// dialLoopback serves b over loopback RPC and returns a client bus, the
// way a deployed sampler reaches its broker.
func dialLoopback(tb testing.TB, b *mq.Broker) mq.Bus {
	tb.Helper()
	srv := rpc.NewServer()
	mq.ServeBroker(b, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	rb, err := mq.DialBroker(addr, 5*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rb.Close() })
	return rb
}

// waitEndOffset polls until the partition's next offset reaches want.
func waitEndOffset(t *testing.T, topic mq.TopicHandle, part int, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if topic.EndOffset(part) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("next offset %d, want %d", topic.EndOffset(part), want)
}

// TestPublishTurnOneBatchPerDestination: a run mixing four destinations
// costs exactly one AppendBatch each — never an unbatched Append — and
// every destination receives its records in the run's order.
func TestPublishTurnOneBatchPerDestination(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	bus := newCountingBus(b)
	w := newPublishWorker(t, bus, 2, 2)

	var run []outMsg
	want := map[pubKey][]uint64{}
	for seq := uint64(0); seq < 60; seq++ {
		var m outMsg
		if seq%3 == 0 {
			m = subDeltaFor(w, int(seq/3)%2, seq)
		} else {
			m = upsertFor(w, int(seq)%2, seq)
		}
		run = append(run, m)
		dest := pubKey{topic: m.topic, partition: m.partition}
		want[dest] = append(want[dest], seq)
	}
	if len(want) != 4 {
		t.Fatalf("test run covers %d destinations, want 4", len(want))
	}
	w.publishTurn(0, run)

	if bus.singles != 0 {
		t.Fatalf("%d unbatched appends", bus.singles)
	}
	for dest, keys := range want {
		if sizes := bus.batches[dest]; len(sizes) != 1 || sizes[0] != len(keys) {
			t.Fatalf("%s/%d: batches %v, want one of %d", dest.topic.Name(), dest.partition, sizes, len(keys))
		}
		if got := recordKeys(t, dest.topic, dest.partition); !slices.Equal(got, keys) {
			t.Fatalf("%s/%d: order %v, want %v", dest.topic.Name(), dest.partition, got, keys)
		}
	}

	// The next turn starts clean: a lone message is one batch of one, to
	// its own destination only.
	lone := upsertFor(w, 1, 1000)
	w.publishTurn(0, []outMsg{lone})
	calls := 0
	for _, sizes := range bus.batches {
		calls += len(sizes)
	}
	loneDest := pubKey{topic: lone.topic, partition: lone.partition}
	if sizes := bus.batches[loneDest]; calls != 5 || len(sizes) != 2 || sizes[1] != 1 {
		t.Fatalf("after a lone message: %d append calls in all, its destination saw %v", calls, sizes)
	}
	if st := w.Stats(); st.PublishConflated != 0 || st.PublishDropped != 0 {
		t.Fatalf("distinct cells on a healthy bus: %+v", st)
	}
}

// TestPublishLoneMessageNotHeld: nothing waits for company. One message
// on an otherwise idle worker reaches its topic with no timer to flush it.
func TestPublishLoneMessageNotHeld(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newPublishWorker(t, b, 1, 1)
	w.Start()
	defer w.Stop()
	w.publish.SendTo(0, upsertFor(w, 0, 9))
	waitEndOffset(t, w.samplesTopic, 0, 1)
}

// TestPublishStopLeavesNothingUnpublished: whatever sits in the publish
// mailboxes when Stop is called is appended, in order, before Stop
// returns — across as many drained runs as the backlog takes.
func TestPublishStopLeavesNothingUnpublished(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	bus := newCountingBus(b)
	w := newPublishWorker(t, bus, 1, 1)
	w.Start()
	const n = 5 * actor.MaxRun
	var wantSamples, wantSubs []uint64
	for seq := uint64(0); seq < n; seq++ {
		if seq%2 == 0 {
			w.publish.SendTo(0, upsertFor(w, 0, seq))
			wantSamples = append(wantSamples, seq)
		} else {
			w.publish.SendTo(0, subDeltaFor(w, 0, seq))
			wantSubs = append(wantSubs, seq)
		}
	}
	w.Stop()
	if got := recordKeys(t, w.samplesTopic, 0); !slices.Equal(got, wantSamples) {
		t.Fatalf("samples after Stop: %d records (want %d, in send order)", len(got), len(wantSamples))
	}
	if got := recordKeys(t, w.subsTopic, 0); !slices.Equal(got, wantSubs) {
		t.Fatalf("subs after Stop: %d records (want %d, in send order)", len(got), len(wantSubs))
	}
	for dest, sizes := range bus.batches {
		for _, size := range sizes {
			if size > actor.MaxRun {
				t.Fatalf("%s: a batch of %d exceeds the drain bound %d", dest.topic.Name(), size, actor.MaxRun)
			}
		}
	}
	if st := w.Stats(); st.PublishDropped != 0 || st.PublishDepth != 0 {
		t.Fatalf("after Stop: %+v", st)
	}
}

// TestPublishDroppedCounted: publishing stays best effort, but a failed
// append is no longer silent — every record of the lost batch is counted,
// in Stats and in the registry, and the next turn is unaffected.
func TestPublishDroppedCounted(t *testing.T) {
	defer faultpoint.Reset()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newPublishWorker(t, b, 1, 1)
	run := func(from uint64) []outMsg {
		var msgs []outMsg
		for seq := from; seq < from+5; seq++ {
			msgs = append(msgs, upsertFor(w, 0, seq))
		}
		return msgs
	}
	faultpoint.ErrorOnce("mq.append")
	w.publishTurn(0, run(0))
	if st := w.Stats(); st.PublishDropped != 5 {
		t.Fatalf("dropped = %d after a failed batch of 5", st.PublishDropped)
	}
	if got := w.cfg.Metrics.Counter("sampler.publish_dropped", "worker", "0").Value(); got != 5 {
		t.Fatalf("registry sampler.publish_dropped = %d, want 5", got)
	}
	if off := w.samplesTopic.EndOffset(0); off != 0 {
		t.Fatalf("a failed batch landed %d records", off)
	}
	w.publishTurn(0, run(5))
	if st := w.Stats(); st.PublishDropped != 5 {
		t.Fatalf("dropped = %d after a healthy turn, want it unchanged at 5", st.PublishDropped)
	}
	if got := recordKeys(t, w.samplesTopic, 0); !slices.Equal(got, []uint64{5, 6, 7, 8, 9}) {
		t.Fatalf("after recovery: %v", got)
	}
}

// TestPublishFullRunFitsBrokerBound: the drain bound is a constant, so it
// has to fit what a broker started with every default accepts in one
// remote append-batch frame.
func TestPublishFullRunFitsBrokerBound(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newPublishWorker(t, dialLoopback(t, b), 1, 1)
	var run []outMsg
	for seq := uint64(0); seq < actor.MaxRun; seq++ {
		run = append(run, upsertFor(w, 0, seq))
	}
	w.publishTurn(0, run)
	if st := w.Stats(); st.PublishDropped != 0 {
		t.Fatalf("a full run was refused: %d dropped", st.PublishDropped)
	}
	if off := w.samplesTopic.EndOffset(0); off != actor.MaxRun {
		t.Fatalf("next offset %d, want %d", off, actor.MaxRun)
	}
}

// TestPublishEndToEnd: the full update→sample→publish protocol over the
// drained publish path — a feature refresh for a subscribed seed reaches
// the serving partition and nothing is dropped on the way.
func TestPublishEndToEnd(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newPublishWorker(t, b, 1, 1)
	w.Start()
	defer w.Stop()

	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: 0, Ts: 1})
	drainQuiesce(t, b, w)
	_, off := drainQueue(t, b, 0)

	ingestVertex(t, b, 1, graph.Vertex{ID: 1, Type: 0, Feature: []float32{1, 2}})
	drainQuiesce(t, b, w)
	msgs, _ := drainQueue(t, b, off)
	found := false
	for _, m := range msgs {
		if m.Kind == wire.KindFeatureUpdate && m.Vertex == 1 && len(m.Feature) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("feature update not forwarded: %v", msgs)
	}
	if st := w.Stats(); st.PublishDropped != 0 {
		t.Fatalf("%d records dropped on a healthy broker", st.PublishDropped)
	}
}
