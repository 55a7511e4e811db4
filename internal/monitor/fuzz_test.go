package monitor

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/obs"
)

// partitionFrame is a coord.telemetry document naming n partitions, the
// first at id first and each next one a further step on, with every
// counter left out (zero).
func partitionFrame(n, first, step int) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"v":%d,"name":"server-0","kind":"server","version":"v","seq":1,"now_ns":1,"partitions":[`, snapshotVersion)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"partition":%d}`, first+i*step)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// One telemetry frame from a peer must not be able to grow the broker's
// state: every partition id a frame names becomes collector state that
// lives as long as the process and is walked by every later view. A
// ~400 KB frame once left 131 072 per-partition gauge closures behind, and
// a crafted one a negative partition id.
func TestTelemetryFrameCannotGrowRegistry(t *testing.T) {
	for name, frame := range map[string][]byte{
		"65536 partitions":  partitionFrame(1<<16, 1, 1),
		"negative id":       partitionFrame(2, 1, -3),
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
		if parts := c.View().Partitions; len(parts) != 0 {
			t.Errorf("%s: one %d-byte frame left %d partitions in the view", name, len(frame), len(parts))
		}
	}
	// A deployment-sized frame is still welcome.
	if _, err := DecodeSnapshot(partitionFrame(64, 0, 1)); err != nil {
		t.Fatalf("64 partitions: %v", err)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the telemetry decoder, the
// one reader of frames a worker sends the broker. It must never panic,
// never allocate more than a constant multiple of the input, and whatever
// it accepts must survive Encode → Decode unchanged.
//
//	go test ./internal/monitor -run '^$' -fuzz FuzzDecodeSnapshot -fuzztime 10s
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode(f, fullSnapshot()))
	f.Add(partitionFrame(1<<16, 1, 1)) // the frame that grew the registry; smaller cases are in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		// The densest element is a three-byte `{},` trace digest, decoded
		// into 56 bytes in a slice grown by doubling.
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
		again, err := DecodeSnapshot(encode(t, s))
		if err != nil || !reflect.DeepEqual(s, again) {
			t.Fatalf("Encode(Decode(x)) does not round-trip (%v):\n%+v\n%+v", err, s, again)
		}
	})
}
