package sampler

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/serving"
	"helios/internal/wire"
)

// TestCrashRecoveryResumesFromCheckpoint exercises the §4.1 fault-tolerance
// story end to end: a sampling worker builds state, checkpoints, "crashes";
// a replacement restores the checkpoint, resumes its input partition from
// the checkpointed offset, and the serving cache converges to the state the
// full stream implies.
func TestCrashRecoveryResumesFromCheckpoint(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	s, xfer := testSchema()
	plan := testPlan(t, s)

	newWorker := func() *Worker {
		w, err := New(Config{
			ID: 0, NumSamplers: 1, NumServers: 1,
			Plans: []*query.Plan{plan}, Schema: s, Broker: b, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sew, err := serving.New(serving.Config{
		ID: 0, NumServers: 1, Plans: []*query.Plan{plan}, Broker: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	sew.Start()
	defer sew.Stop()

	w1 := newWorker()
	w1.Start()

	// Phase 1: account 1 transfers to 2 and 3.
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: xfer, Ts: 1})
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 3, Type: xfer, Ts: 2})
	drainQuiesce(t, b, w1)

	var ckpt bytes.Buffer
	if err := w1.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// Crash: the worker dies without flushing anything further.
	w1.Stop()

	// Phase 2 arrives while the worker is down (the broker retains it).
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 4, Type: xfer, Ts: 3})
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 5, Type: xfer, Ts: 4})

	// Recovery: restore the checkpoint and resume.
	w2 := newWorker()
	if err := w2.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The warm-restart pin: both phase-1 updates are in the restored
	// tables, so replay must start at offset 2, not zero.
	if upd, _ := w2.ReplayFloor(); upd != 2 {
		t.Fatalf("update replay floor = %d, want the checkpointed offset 2", upd)
	}
	w2.Start()
	defer w2.Stop()
	drainQuiesce(t, b, w2)

	// The serving cache must converge to TopK(2) over the FULL stream:
	// {4, 5} (newest timestamps win).
	deadline := time.Now().Add(10 * time.Second)
	for {
		samples := sew.CachedSamples(plan.OneHops[0].ID, 1)
		var got []int
		for _, smp := range samples {
			got = append(got, int(smp.Neighbor))
		}
		sort.Ints(got)
		if len(got) == 2 && got[0] == 4 && got[1] == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never converged after recovery: %v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckpointMidBatchRestoresOnce: a checkpoint taken while the update
// poll loop sits between routing a batch and storing its offset used to
// record the offset from before the batch, beside shard images that
// already held it. Replay from that floor offered the update 1 → 2 a
// second time: the restored hop-1 reservoir of vertex 1 held neighbour 2
// twice, with seen=2. It must equal the uncrashed worker's.
func TestCheckpointMidBatchRestoresOnce(t *testing.T) {
	defer faultpoint.Reset()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	// The update is in the log before the worker starts, so the first
	// batch holds it and the faultpoint's one fire holds that batch.
	w1 := newTestWorker(t, b, 0, 1, 1)
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: 0, Ts: 1})
	faultpoint.Delay("sampler.poll.routed", 1, 200*time.Millisecond)
	w1.Start()
	for deadline := time.Now().Add(5 * time.Second); faultpoint.Hits("sampler.poll.routed") == 0; {
		if time.Now().After(deadline) {
			w1.Stop()
			t.Fatal("the update poll loop was never held between routing and its offset store")
		}
		time.Sleep(time.Millisecond)
	}
	var ckpt bytes.Buffer
	if err := w1.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	drainQuiesce(t, b, w1)
	w1.Stop()
	hop := w1.cfg.Plans[0].OneHops[0].ID
	reservoir := func(w *Worker) string {
		re := w.shardOf(1).reservoirs[hop][1]
		if re == nil {
			return "none"
		}
		var items []string
		for _, s := range re.res.Items() {
			items = append(items, fmt.Sprintf("{%d %d}", s.Neighbor, s.Ts))
		}
		return fmt.Sprintf("%v seen=%d", items, re.res.Seen())
	}
	want := reservoir(w1)
	if want != "[{2 1}] seen=1" {
		t.Fatalf("uncrashed reservoir = %s", want)
	}

	w2 := newTestWorker(t, b, 0, 1, 1)
	if err := w2.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if upd, _ := w2.ReplayFloor(); upd != 1 {
		t.Fatalf("update replay floor = %d, want 1: the held batch is in the images", upd)
	}
	w2.Start()
	// Before its first batch a restored worker's offsets are its floors,
	// not zero.
	var again bytes.Buffer
	if err := w2.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	drainQuiesce(t, b, w2)
	w2.Stop()
	if got := reservoir(w2); got != want {
		t.Fatalf("restored reservoir = %s, uncrashed = %s", got, want)
	}
	w3 := newTestWorker(t, b, 0, 1, 1)
	if err := w3.Restore(bytes.NewReader(again.Bytes())); err != nil {
		t.Fatal(err)
	}
	if upd, _ := w3.ReplayFloor(); upd != 1 {
		t.Fatalf("a restored worker checkpointed at start records update floor %d, want 1", upd)
	}
}

// TestRecoveryWithoutCheckpointReplaysAll: a replacement worker with no
// checkpoint rebuilds all state from the retained broker log.
func TestRecoveryWithoutCheckpointReplaysAll(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	s, xfer := testSchema()
	plan := testPlan(t, s)
	sew, err := serving.New(serving.Config{
		ID: 0, NumServers: 1, Plans: []*query.Plan{plan}, Broker: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	sew.Start()
	defer sew.Stop()

	w1, err := New(Config{ID: 0, NumSamplers: 1, NumServers: 1,
		Plans: []*query.Plan{plan}, Schema: s, Broker: b, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w1.Start()
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: xfer, Ts: 1})
	drainQuiesce(t, b, w1)
	w1.Stop() // crash with no checkpoint

	w2, err := New(Config{ID: 0, NumSamplers: 1, NumServers: 1,
		Plans: []*query.Plan{plan}, Schema: s, Broker: b, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w2.Start()
	defer w2.Stop()
	drainQuiesce(t, b, w2)
	if w2.Stats().Admissions == 0 {
		t.Fatal("replacement worker did not replay the log")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if samples := sew.CachedSamples(plan.OneHops[0].ID, 1); len(samples) == 1 && samples[0].Neighbor == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cache not rebuilt from replay")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSampleQueueMessagesWellFormed consumes the serving queue raw and
// verifies every message decodes (wire-compatibility of the publisher).
func TestSampleQueueMessagesWellFormed(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	w.Start()
	defer w.Stop()
	for i := 1; i <= 10; i++ {
		ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: graph.VertexID(i + 1), Type: 0, Ts: graph.Timestamp(i)})
	}
	drainQuiesce(t, b, w)
	topic, _ := b.Topic(wire.TopicSamples)
	c := topic.OpenConsumer(0, 0)
	recs, err := c.Poll(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no sample-queue messages published")
	}
	for _, rec := range recs {
		if _, err := wire.Decode(rec.Value); err != nil {
			t.Fatalf("malformed queue message: %v", err)
		}
	}
}
