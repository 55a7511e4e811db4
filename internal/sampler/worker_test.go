package sampler

import (
	"bytes"
	"testing"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/sampling"
	"helios/internal/wire"
)

func testSchema() (*graph.Schema, graph.EdgeType) {
	s := graph.NewSchema()
	acct := s.AddVertexType("Account")
	xfer := s.AddEdgeType("TransferTo", acct, acct)
	return s, xfer
}

func testPlan(t testing.TB, s *graph.Schema) *query.Plan {
	t.Helper()
	q, err := query.NewBuilder(s, "Account").
		Out("TransferTo", 2, sampling.TopK).
		Out("TransferTo", 2, sampling.TopK).
		Build("test")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.Decompose(0, q, s)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func newTestWorker(t testing.TB, b *mq.Broker, id, m, n int) *Worker {
	t.Helper()
	s, _ := testSchema()
	w, err := New(Config{
		ID: id, NumSamplers: m, NumServers: n,
		Plans:  []*query.Plan{testPlan(t, s)},
		Schema: s,
		Broker: b,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	s, _ := testSchema()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	bad := []Config{
		{ID: 0, NumSamplers: 0, NumServers: 1, Broker: b, Schema: s},
		{ID: 2, NumSamplers: 2, NumServers: 1, Broker: b, Schema: s},
		{ID: -1, NumSamplers: 2, NumServers: 1, Broker: b, Schema: s},
		{ID: 0, NumSamplers: 1, NumServers: 0, Broker: b, Schema: s},
		{ID: 0, NumSamplers: 1, NumServers: 1, Broker: nil, Schema: s},
		{ID: 0, NumSamplers: 1, NumServers: 1, Broker: b, Schema: nil},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
}

func TestStartStopIdempotent(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	w.Start()
	w.Start() // no-op
	w.Stop()
	w.Stop() // no-op
}

// drainQuiesce waits until the worker has consumed its backlog.
func drainQuiesce(t testing.TB, b *mq.Broker, ws ...*Worker) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		idle := true
		for _, w := range ws {
			st := w.Stats()
			if w.Lag() != 0 || w.SubsLag() != 0 || st.SamplingDepth != 0 || st.PublishDepth != 0 {
				idle = false
			}
		}
		if idle {
			time.Sleep(20 * time.Millisecond)
			idle2 := true
			for _, w := range ws {
				st := w.Stats()
				if w.Lag() != 0 || w.SubsLag() != 0 || st.SamplingDepth != 0 || st.PublishDepth != 0 {
					idle2 = false
				}
			}
			if idle2 {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("worker did not quiesce")
}

func ingestEdge(t testing.TB, b *mq.Broker, m int, e graph.Edge) {
	t.Helper()
	topic, ok := b.Topic(wire.TopicUpdates)
	if !ok {
		t.Fatal("updates topic missing")
	}
	u := graph.NewEdgeUpdate(e)
	u.Ingested = time.Now().UnixNano()
	part := graph.NewPartitioner(m)
	if _, err := topic.Append(part.Of(e.Src), uint64(e.Src), codec.EncodeUpdate(u)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	w.Start()

	// Build state: account 1 → 2,3,4 with TopK fan-out 2 keeps {3,4}.
	for i, dst := range []graph.VertexID{2, 3, 4} {
		ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: dst, Type: 0, Ts: graph.Timestamp(i + 1)})
	}
	drainQuiesce(t, b, w)
	statsBefore := w.Stats()
	if statsBefore.Admissions == 0 {
		t.Fatal("no admissions before checkpoint")
	}

	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	w.Stop()

	// Restore into a fresh worker with a different shard count; the
	// reservoir contents must survive redistribution.
	b2 := mq.NewBroker(mq.Options{})
	defer b2.Close()
	s, _ := testSchema()
	plan := testPlan(t, s)
	w2, err := New(Config{
		ID: 0, NumSamplers: 1, NumServers: 1,
		Plans: []*query.Plan{plan}, Schema: s, Broker: b2,
		SampleThreads: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st := w2.shardOf(1)
	re := st.reservoirs[plan.OneHops[0].ID][1]
	if re == nil {
		t.Fatal("hop-1 reservoir for vertex 1 lost in restore")
	}
	got := map[graph.VertexID]bool{}
	for _, smp := range re.res.Items() {
		got[smp.Neighbor] = true
	}
	if !got[3] || !got[4] || got[2] {
		t.Fatalf("restored reservoir contents wrong: %v", got)
	}
	if re.res.Seen() != 3 {
		t.Fatalf("restored seen = %d", re.res.Seen())
	}
	// The implicit feature subscription for seed 1 must also survive.
	if w2.shardOf(1).featSubs[1] == nil {
		t.Fatal("feature subscription lost in restore")
	}
}

func TestCheckpointRequiresStarted(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err == nil {
		t.Fatal("checkpoint on stopped worker should fail")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	if err := w.Restore(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage restore should fail")
	}
}

func TestRestoreRequiresStopped(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	w.Start()
	defer w.Stop()
	if err := w.Restore(bytes.NewReader(nil)); err == nil {
		t.Fatal("restore on started worker should fail")
	}
}
