package sampler

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/wire"
)

// hugeCountImage is a 33-byte checkpoint: the magic, replay floor 0/0, and
// one shard blob holding one hop with one reservoir that claims 1<<62
// samples. Restore once sized an allocation from that count and panicked.
const hugeCountImage = "\x0dHELIOS-SAW-v1" + // magic
	"\x00\x00" + // replay floor
	"\x01\x0f" + // one shard blob of 15 bytes:
	"\x01\x00\x01" + // one hop (ID 0) with one reservoir,
	"\x01\x00\x00" + // vertex 1, touch 0, seen 0,
	"\x80\x80\x80\x80\x80\x80\x80\x80\x40" // and a sample count of 1<<62

func TestRestoreRejectsHugeCount(t *testing.T) {
	if len(hugeCountImage) != 33 {
		t.Fatalf("image is %d bytes", len(hugeCountImage))
	}
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	if err := w.Restore(bytes.NewReader([]byte(hugeCountImage))); err == nil {
		t.Fatal("restore accepted a reservoir count larger than the image")
	}
}

// FuzzRestoreCheckpoint feeds Restore arbitrary images: what a restarting
// sampler reads off its disk. It must never panic, and whatever it accepts
// must survive restore → checkpoint → restore unchanged.
func FuzzRestoreCheckpoint(f *testing.F) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	f.Add([]byte{})
	f.Add([]byte(hugeCountImage))
	f.Add(validCheckpoint(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newTestWorker(t, b, 0, 1, 1)
		if err := w.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		again := newTestWorker(t, b, 0, 1, 1)
		if err := again.Restore(bytes.NewReader(image(w))); err != nil {
			t.Fatalf("restoring the checkpoint of a restored worker: %v", err)
		}
		want, got := tables(w), tables(again)
		if len(got) != len(want) {
			t.Fatalf("restore → checkpoint → restore: %d entries → %d", len(want), len(got))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %q after the round trip, %q before", k, got[k], v)
			}
		}
	})
}

// validCheckpoint is a started worker's checkpoint after a few edges:
// reservoirs on both hops, features and subscriptions.
func validCheckpoint(t testing.TB) []byte {
	t.Helper()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b, 0, 1, 1)
	w.Start()
	defer w.Stop()
	for i, e := range [][2]graph.VertexID{{1, 2}, {1, 3}, {1, 4}, {3, 5}, {4, 6}} {
		ingestEdge(t, b, 1, graph.Edge{Src: e[0], Dst: e[1], Ts: graph.Timestamp(i + 1), Weight: 0.5})
	}
	updates, _ := b.Topic(wire.TopicUpdates)
	if _, err := updates.Append(0, 3, codec.EncodeUpdate(graph.NewVertexUpdate(graph.Vertex{ID: 3, Feature: []float32{1, float32(math.NaN())}}))); err != nil {
		t.Fatal(err)
	}
	drainQuiesce(t, b, w)
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// image is w's checkpoint, taken from its tables directly so a worker that
// was only restored, never started, can be checkpointed.
func image(w *Worker) []byte {
	return w.checkpointImage(w.startUpd, w.startSubs, func(i int) []byte { return w.snapshotShard(w.shards[i]) })
}

// tables renders every table entry of w, keyed by shard and entry, with
// floats as bits so NaN compares equal to itself.
func tables(w *Worker) map[string]string {
	out := map[string]string{"floor": fmt.Sprint(w.startUpd, w.startSubs)}
	for i, st := range w.shards {
		for hid, m := range st.reservoirs {
			for v, re := range m {
				s := fmt.Sprint(re.touch, re.res.Seen())
				for _, it := range re.res.Items() {
					s += fmt.Sprint(" ", it.Neighbor, it.Ts, math.Float32bits(it.Weight))
				}
				out[fmt.Sprint("reservoir ", i, hid, v)] = s
			}
		}
		for v, fe := range st.features {
			bits := make([]uint32, len(fe.feat))
			for j, x := range fe.feat {
				bits[j] = math.Float32bits(x)
			}
			out[fmt.Sprint("feature ", i, v)] = fmt.Sprint(fe.touch, bits)
		}
		for hid, m := range st.sampleSubs {
			for v, subs := range m {
				out[fmt.Sprint("sample-subs ", i, hid, v)] = fmt.Sprint(subs)
			}
		}
		for v, subs := range st.featSubs {
			out[fmt.Sprint("feature-subs ", i, v)] = fmt.Sprint(subs)
		}
	}
	return out
}
