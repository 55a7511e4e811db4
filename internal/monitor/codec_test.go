package monitor

import (
	"encoding/json"
	"reflect"
	"testing"
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
		got, err := DecodeSnapshot(encode(t, s))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, s)
		}
	}
}

func encode(t testing.TB, s *WorkerSnapshot) []byte {
	t.Helper()
	doc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestDecodeSnapshotTruncated(t *testing.T) {
	full := encode(t, fullSnapshot())
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if _, err := DecodeSnapshot(full[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(full))
		}
	}
	// Trailing input must also fail: a frame is exactly one document.
	for _, tail := range []string{"\xff", "{}"} {
		if _, err := DecodeSnapshot(append(append([]byte(nil), full...), tail...)); err == nil {
			t.Fatalf("decode with trailing %q succeeded", tail)
		}
	}
}

func TestDecodeSnapshotVersionMismatch(t *testing.T) {
	for _, v := range []int{0, 1, snapshotVersion + 1} {
		b, err := json.Marshal(snapshotDoc{v, fullSnapshot()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(b); err == nil {
			t.Fatalf("decode of version %d succeeded", v)
		}
	}
}
