package monitor

import (
	"reflect"
	"testing"

	"helios/internal/codec"
)

func fullSnapshot() *WorkerSnapshot {
	return &WorkerSnapshot{
		Name:    "server-3",
		Kind:    "server",
		Version: "abc123def456",
		Seq:     42,
		StartNS: 1_000_000_000,
		NowNS:   9_000_000_000,
		Partitions: []PartitionStats{
			{Partition: 0, Served: 100, SampleHits: 90, SampleMisses: 10, Lag: 5, StalenessNS: 1200},
			{Partition: 3, Served: 7, SampleHits: 0, SampleMisses: 7, Lag: 0, StalenessNS: 0},
			{Partition: 17, Served: 0, SampleHits: 0, SampleMisses: 0, Lag: 123456, StalenessNS: -1},
		},
		Stages: []StageP99{
			{Stage: "serving.khop_assembly", Count: 500, P50NS: 1000, P99NS: 90000},
			{Stage: "serving.queue_wait", Count: 500, P50NS: 10, P99NS: 400},
		},
		SLOs: []SLOBurn{
			{Name: "frontend.sample_latency", BurnRateMilli: 2500, Bad: 5, Good: 95},
		},
		Worst: []TraceSummary{
			{ID: 0xdeadbeef, Op: "sample", TotalNS: 1_000_000, WorstStage: "serving.khop_assembly", WorstStageNS: 900_000},
		},
		SlowLines: []string{`{"msg":"slow serve"}`, `{"msg":"slower serve"}`},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, s := range map[string]*WorkerSnapshot{
		"full":  fullSnapshot(),
		"empty": {Name: "sampler-0", Kind: "sampler", Version: "dev", Seq: 1, StartNS: 5, NowNS: 6},
	} {
		w := codec.NewWriter(64)
		s.Encode(w)
		got, err := DecodeSnapshot(w.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, s)
		}
	}
}

// Delta-encoded partition IDs keep a many-partition snapshot compact:
// each subsequent ascending ID costs one or two bytes, not a full
// varint of its absolute value.
func TestSnapshotPartitionDeltaCompact(t *testing.T) {
	s := &WorkerSnapshot{Name: "w", Kind: "server", Version: "v", Seq: 1}
	for p := 1000; p < 1064; p++ {
		s.Partitions = append(s.Partitions, PartitionStats{Partition: p, Served: 1})
	}
	w := codec.NewWriter(64)
	s.Encode(w)
	got, err := DecodeSnapshot(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Partitions) != 64 || got.Partitions[63].Partition != 1063 {
		t.Fatalf("partitions = %d, last = %+v", len(got.Partitions), got.Partitions[len(got.Partitions)-1])
	}
	// 64 partitions: ~6 bytes each (1-2 for the delta, 5 × 1 for the
	// zero-ish counters). Anything near the absolute-ID encoding (2 bytes
	// per ID alone) should stay well under 1KB total.
	if n := len(w.Bytes()); n > 1024 {
		t.Fatalf("64-partition snapshot encodes to %d bytes", n)
	}
}

func TestDecodeSnapshotTruncated(t *testing.T) {
	w := codec.NewWriter(64)
	fullSnapshot().Encode(w)
	full := w.Bytes()
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if _, err := DecodeSnapshot(full[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(full))
		}
	}
	// Trailing garbage must also fail: Finish catches it.
	if _, err := DecodeSnapshot(append(append([]byte(nil), full...), 0xff)); err == nil {
		t.Fatal("decode with trailing garbage succeeded")
	}
}

func TestDecodeSnapshotVersionMismatch(t *testing.T) {
	w := codec.NewWriter(64)
	fullSnapshot().Encode(w)
	b := append([]byte(nil), w.Bytes()...)
	b[0] = snapshotVersion + 1
	if _, err := DecodeSnapshot(b); err == nil {
		t.Fatal("decode of future version succeeded")
	}
}

// A hostile length prefix must be rejected before any allocation is
// attempted.
func TestDecodeSnapshotHugeSliceBound(t *testing.T) {
	w := codec.NewWriter(64)
	w.Byte(snapshotVersion)
	w.String("w")
	w.String("server")
	w.String("v")
	w.Uvarint(1)
	w.Varint(0)
	w.Varint(0)
	w.Uvarint(1 << 40) // partition count, with no bytes behind it
	if _, err := DecodeSnapshot(w.Bytes()); err == nil {
		t.Fatal("decode with oversized partition count succeeded")
	}
}
