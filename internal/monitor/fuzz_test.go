package monitor

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/obs"
)

// partitionFrame is a coord.telemetry frame naming n partitions, the first
// at id first and each next one a further step on: six one-byte varints
// per partition when the deltas are small.
func partitionFrame(n int, first, step uint64) []byte {
	w := codec.NewWriter(64 + 16*n)
	w.Byte(snapshotVersion)
	w.String("server-0")
	w.String("server")
	w.String("v")
	w.Uvarint(1)
	w.Varint(0)
	w.Varint(1)
	w.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		if i == 0 {
			w.Uvarint(first)
		} else {
			w.Uvarint(step)
		}
		for f := 0; f < 5; f++ {
			w.Varint(0)
		}
	}
	for s := 0; s < 4; s++ {
		w.Uvarint(0) // no stages, SLOs, traces, slow lines
	}
	return w.Bytes()
}

// One telemetry frame from a peer must not be able to grow the broker's
// registry: every partition id a frame names becomes collector state and a
// cluster.partition_heat gauge that live as long as the process and are
// walked by every later scrape. A ~400 KB frame used to leave 131 072
// gauge closures behind, and a delta past 2^63 a negative partition id.
func TestTelemetryFrameCannotGrowRegistry(t *testing.T) {
	for name, frame := range map[string][]byte{
		"65536 partitions":  partitionFrame(1<<16, 1, 1),
		"negative id":       partitionFrame(2, 1, math.MaxUint64-2),
		"id past any fleet": partitionFrame(1, 1<<20, 0),
	} {
		reg := obs.NewRegistry()
		c := NewCollector(CollectorConfig{Clock: clock.NewFake(), Interval: time.Second, Registry: reg})
		before := len(reg.Snapshot().Gauges)
		snap, err := DecodeSnapshot(frame) // what the coord.telemetry handler does
		if err == nil {
			c.OnSnapshot(snap)
			t.Errorf("%s: a %d-byte frame decoded, naming partitions %d..%d", name, len(frame),
				snap.Partitions[0].Partition, snap.Partitions[len(snap.Partitions)-1].Partition)
		}
		if grew := len(reg.Snapshot().Gauges) - before; grew != 0 {
			t.Errorf("%s: one %d-byte frame registered %d gauges", name, len(frame), grew)
		}
	}
	// A deployment-sized frame is still welcome.
	if _, err := DecodeSnapshot(partitionFrame(64, 0, 1)); err != nil {
		t.Fatalf("64 partitions: %v", err)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the telemetry decoder, the
// one reader of frames a worker sends the broker. It must never panic,
// never allocate more than a constant multiple of the input (every count
// is checked against the bytes left), and whatever it accepts must survive
// Encode → Decode unchanged.
//
//	go test ./internal/monitor -run '^$' -fuzz FuzzDecodeSnapshot -fuzztime 10s
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	w := codec.NewWriter(256)
	fullSnapshot().Encode(w)
	f.Add(append([]byte(nil), w.Bytes()...))
	f.Add(partitionFrame(1<<16, 1, 1)) // the frame that grew the registry; smaller cases are in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		// The smallest element is a one-byte slow line, decoded into a
		// 16-byte string header in a slice grown by doubling.
		const allocFactor, allocSlack = 128, 16 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := DecodeSnapshot(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocFactor*len(data)+allocSlack) {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for _, p := range s.Partitions {
			if p.Partition < 0 || p.Partition >= MaxPartitions {
				t.Fatalf("decoded partition id %d", p.Partition)
			}
		}
		w := codec.NewWriter(len(data))
		s.Encode(w)
		again, err := DecodeSnapshot(w.Bytes())
		if err != nil || !reflect.DeepEqual(s, again) {
			t.Fatalf("Encode(Decode(x)) does not round-trip (%v):\n%+v\n%+v", err, s, again)
		}
	})
}
