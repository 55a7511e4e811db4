package serving

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/kvstore"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/wire"
)

// TestWarmRestartReplaysOnlyTail is the warm-restart contract: a restore
// from a snapshot pinned at offset N replays only the records past N —
// measurably fewer than the cold restart, which replays the whole log —
// while converging to the same cache.
func TestWarmRestartReplaysOnlyTail(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()

	for v := graph.VertexID(1); v <= 5; v++ {
		push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: v, Feature: []float32{float32(v)}})
	}
	waitApplied(t, w, 5)
	path := filepath.Join(t.TempDir(), "serving.snap")
	if err := w.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(6); v <= 8; v++ {
		push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: v, Feature: []float32{float32(v)}})
	}
	waitApplied(t, w, 8)
	w.Stop()

	// Warm: restore pins the consumer at the snapshot offset.
	warm := newTestWorker(t, b)
	if err := warm.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	if floor := warm.ReplayFloor(); floor != 5 {
		t.Fatalf("replay floor = %d, want the pinned offset 5", floor)
	}
	warm.Start()
	waitApplied(t, warm, 3)
	// Settle, then confirm nothing below the pin was re-applied.
	time.Sleep(50 * time.Millisecond)
	if n := warm.Stats().Applied; n != 3 {
		t.Fatalf("warm restart applied %d records, want only the 3-record tail", n)
	}
	for v := graph.VertexID(1); v <= 8; v++ {
		if !warm.HasFeature(v) {
			t.Fatalf("feature %d missing after warm restart", v)
		}
	}
	warm.Stop()

	// Cold: no snapshot, the whole 8-record log replays.
	cold := newTestWorker(t, b)
	cold.Start()
	waitApplied(t, cold, 8)
	cold.Stop()
	if n := cold.Stats().Applied; n != 8 {
		t.Fatalf("cold restart applied %d records, want all 8", n)
	}
}

// waitConsumed waits until the poll loop's cursor position reaches n —
// which says nothing about how many of those messages the async update
// pool has applied.
func waitConsumed(t *testing.T, w *Worker, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.consumed.Load() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("consumed only reached %d of %d", w.consumed.Load(), n)
}

// TestSnapshotWaitsForQueuedApplies is the applied-watermark regression
// test: the poll loop advances consumed after messages are merely
// *enqueued* to the async update pool, so a snapshot taken live must
// barrier through the pool before dumping — otherwise a message below the
// pinned replay floor can be queued-but-unapplied at dump time and be
// permanently lost from the restored cache.
func TestSnapshotWaitsForQueuedApplies(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()

	// Stall every update actor: each handler blocks acking an unbuffered
	// barrier nobody receives yet.
	stall := make(chan struct{})
	for i := range w.updatePool.Workers() {
		w.updatePool.SendTo(i, cacheUpdate{barrier: stall})
	}

	// The poll loop enqueues these behind the stall and advances consumed
	// past offsets that are NOT applied — exactly the lost-update window.
	for v := graph.VertexID(1); v <= 3; v++ {
		push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: v, Feature: []float32{float32(v)}})
	}
	waitConsumed(t, w, 3)
	if n := w.Stats().Applied; n != 0 {
		t.Fatalf("applied %d with the update actor stalled", n)
	}

	// The snapshot must block on the pool barrier, not dump early.
	path := filepath.Join(t.TempDir(), "serving.snap")
	snapped := make(chan error, 1)
	go func() { snapped <- w.SnapshotFile(path) }()
	select {
	case err := <-snapped:
		t.Fatalf("snapshot completed over 3 unapplied queued messages: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	for range w.updatePool.Workers() {
		<-stall // release the actors: applies drain, then the barrier acks
	}
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	w.Stop()

	// The restored image must hold every message below its replay floor.
	w2 := newTestWorker(t, b)
	if err := w2.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	if floor := w2.ReplayFloor(); floor != 3 {
		t.Fatalf("replay floor = %d, want 3", floor)
	}
	for v := graph.VertexID(1); v <= 3; v++ {
		if !w2.HasFeature(v) {
			t.Fatalf("feature %d below the pin missing from the snapshot", v)
		}
	}
}

// TestTornSnapshotNeverLoaded: a crash mid-snapshot (armed fsx faultpoint)
// leaves the previous image intact under the target path; the torn .tmp is
// never what Restore opens.
func TestTornSnapshotNeverLoaded(t *testing.T) {
	defer faultpoint.Reset()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()

	push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 1, Feature: []float32{1}})
	waitApplied(t, w, 1)
	path := filepath.Join(t.TempDir(), "serving.snap")
	if err := w.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 2, Feature: []float32{2}})
	waitApplied(t, w, 2)
	faultpoint.ErrorOnce("serving.snapshot.write")
	if err := w.SnapshotFile(path); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("want injected snapshot failure, got %v", err)
	}
	w.Stop()

	// The restore must see the LAST GOOD image: floor 1, vertex 1 only.
	w2 := newTestWorker(t, b)
	if err := w2.RestoreFile(path); err != nil {
		t.Fatalf("previous image unreadable after torn write: %v", err)
	}
	if floor := w2.ReplayFloor(); floor != 1 {
		t.Fatalf("replay floor = %d, want the last good pin 1", floor)
	}
	if !w2.HasFeature(1) || w2.HasFeature(2) {
		t.Fatal("torn snapshot leaked into the restored image")
	}
}

// TestSpillTier drives a worker whose typed tier holds two 10-float
// features: the rest spill to the kvstore and are still found, a cell moves
// between the tiers without being counted twice, evictions and TTL sweeps
// reach both tiers, and a snapshot carries both into a memory-only worker.
func TestSpillTier(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	clk := clock.NewFake()
	w, err := New(Config{ID: 0, NumServers: 1, Plans: []*query.Plan{testPlan(t)}, Broker: b, Clock: clk,
		Store: kvstore.Options{Dir: t.TempDir(), MemBudgetBytes: 2 * (64 + 4*10)}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.cache.close()
	feature := func(v graph.VertexID) {
		w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: v, Feature: make([]float32, 10)})
	}
	entries := func() int {
		n, err := w.CacheEntries()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for v := graph.VertexID(1); v <= 6; v++ {
		feature(v)
	}
	if w.cache.entries.Load() != 2 || entries() != 6 {
		t.Fatalf("%d typed cells, %d in all; want 2 of 6", w.cache.entries.Load(), entries())
	}
	for v := graph.VertexID(1); v <= 6; v++ {
		if !w.HasFeature(v) {
			t.Fatalf("feature %d lost", v)
		}
	}
	// Free a typed slot; the next update of a spilled cell moves it over.
	w.applyMessage(0, wire.Message{Kind: wire.KindFeatureEvict, Vertex: 1})
	feature(5)
	if w.HasFeature(1) || !w.HasFeature(5) || w.cache.entries.Load() != 2 || entries() != 5 {
		t.Fatalf("after evict+move: %d typed, %d in all; want 2 of 5", w.cache.entries.Load(), entries())
	}
	w.applyMessage(0, wire.Message{Kind: wire.KindFeatureEvict, Vertex: 6}) // a spilled one
	if w.HasFeature(6) || entries() != 4 {
		t.Fatalf("evicting a spilled cell: present %v, %d in all", w.HasFeature(6), entries())
	}

	var img bytes.Buffer
	if err := w.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	mem := newTestWorker(t, b)
	if err := mem.Restore(&img); err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(2); v <= 5; v++ {
		if !mem.HasFeature(v) {
			t.Fatalf("feature %d missing from the restored memory-only worker", v)
		}
	}
	if n, _ := mem.CacheEntries(); mem.cache.spill != nil || n != 4 {
		t.Fatalf("restored: spill %v, %d cells", mem.cache.spill != nil, n)
	}

	clk.Advance(time.Second)
	w.sweep(clk.Now().UnixNano())
	if n := entries(); n != 0 || w.cache.bytes.Load() != 0 {
		t.Fatalf("a sweep past every touch left %d cells, %d typed bytes", n, w.cache.bytes.Load())
	}
}
