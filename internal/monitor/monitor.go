// Package monitor is the cluster observability plane. Helios telemetry
// up to PR 7 is process-local: each binary exposes its own /metrics,
// /traces and /slo, and correlating an incident across a frontend, a
// broker, N samplers and M serving workers means scraping N+M+2
// listeners by hand. This package federates that state through the
// coordinator, which every worker already talks to:
//
//   - workers run a Reporter that periodically assembles a compact
//     WorkerSnapshot (per-partition serve counts, consumer lag, cache
//     hit/miss, stage p99s, SLO burn, worst traces, slow-log tail) and
//     ships it over the existing broker RPC connection via the
//     coord.telemetry method (rpc.go);
//   - the coordinator side runs a Collector that folds snapshots into a
//     live cluster view — per-worker liveness (a snapshot is the beat),
//     per-partition rate, lag, hit rate and staleness, and cluster-level
//     stage rollups — served at GET /cluster, with the worker counts
//     exported as cluster.workers / stale_workers / dead_workers gauges;
//   - a FlightRecorder persists a bounded on-disk ring of capture
//     documents (cluster view history + worst traces + slow-log lines)
//     whenever an SLO burn crosses its threshold or a worker dies, so
//     post-mortem evidence survives the process that observed it.
//
// A snapshot crosses coord.telemetry as its own JSON document plus a "v"
// field: a serving worker's report, which names its one partition and
// five stages, is about 650 bytes, cheap enough to send every few seconds.
package monitor

import (
	"encoding/json"
	"fmt"
)

// snapshotVersion versions the WorkerSnapshot document's layout.
const snapshotVersion = 2

// PartitionStats is the per-partition slice of one worker snapshot. All
// counters are cumulative since process start; the Collector differences
// consecutive snapshots to derive rates, so a worker restart (counters
// reset to zero) merely yields one skipped rate sample instead of a
// negative spike.
type PartitionStats struct {
	// Partition is the canonical partition ID (the serving worker's ID in
	// the current static topology).
	Partition int `json:"partition"`
	// Served counts sampling requests served from this partition.
	Served int64 `json:"served"`
	// SampleHits / SampleMisses are the sample-cache counters.
	SampleHits   int64 `json:"sample_hits"`
	SampleMisses int64 `json:"sample_misses"`
	// Lag is the partition's consumer lag (appended − consumed).
	Lag int64 `json:"lag"`
	// StalenessNS is the event-time staleness of the latest cache apply.
	StalenessNS int64 `json:"staleness_ns"`
}

// StageP99 summarizes one stage-latency histogram.
type StageP99 struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P99NS int64  `json:"p99_ns"`
}

// SLOBurn is the rolling burn state of one SLO, in the milli convention
// the slo.burn_rate_milli gauge already uses (1000 = burning exactly the
// provisioned error budget).
type SLOBurn struct {
	Name          string `json:"name"`
	BurnRateMilli int64  `json:"burn_rate_milli"`
	Bad           int64  `json:"bad"`
	Good          int64  `json:"good"`
}

// TraceSummary is the one-line digest of a slow trace: enough for a
// flight-recorder capture to name the guilty request and its dominant
// stage without shipping full span lists every interval.
type TraceSummary struct {
	ID           uint64 `json:"id"`
	Op           string `json:"op"`
	TotalNS      int64  `json:"total_ns"`
	WorstStage   string `json:"worst_stage"`
	WorstStageNS int64  `json:"worst_stage_ns"`
}

// WorkerSnapshot is one worker's telemetry report. NowNS is stamped from
// the worker's own clock; the Collector differences consecutive NowNS
// values for rate windows, so worker and coordinator clocks never need
// to agree.
type WorkerSnapshot struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Version string `json:"version"`
	// Seq increments per report from this Reporter instance; a reset
	// betrays a worker restart.
	Seq uint64 `json:"seq"`
	// StartNS is the process start time (unix nanos, worker clock).
	StartNS int64 `json:"start_ns"`
	// NowNS is the snapshot time (unix nanos, worker clock).
	NowNS int64 `json:"now_ns"`

	// The slices keep null and [] apart, so a document survives
	// Decode → Encode → Decode exactly.
	Partitions []PartitionStats `json:"partitions"`
	Stages     []StageP99       `json:"stages"`
	SLOs       []SLOBurn        `json:"slos"`
	Worst      []TraceSummary   `json:"worst"`
	SlowLines  []string         `json:"slow_lines"`
}

// snapshotDoc is the coord.telemetry document: the snapshot's own JSON
// beside the version of its layout.
type snapshotDoc struct {
	V int `json:"v"`
	*WorkerSnapshot
}

// Encode returns the snapshot's coord.telemetry document.
func (s *WorkerSnapshot) Encode() ([]byte, error) {
	return json.Marshal(snapshotDoc{snapshotVersion, s})
}

// MaxPartitions bounds the partition ids a snapshot may name. A partition
// id is a serving worker's index, and every id a peer names becomes
// collector state and a gauge that live as long as the process, so the
// decoder refuses ids a deployment could not have.
const MaxPartitions = 1 << 12

// DecodeSnapshot parses one coord.telemetry document. It refuses another
// version, anything but exactly one JSON document, and a partition id
// outside [0, MaxPartitions).
func DecodeSnapshot(b []byte) (*WorkerSnapshot, error) {
	doc := snapshotDoc{WorkerSnapshot: new(WorkerSnapshot)}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("monitor: snapshot: %w", err)
	}
	if doc.V != snapshotVersion {
		return nil, fmt.Errorf("monitor: snapshot version %d, want %d", doc.V, snapshotVersion)
	}
	for _, p := range doc.Partitions {
		if p.Partition < 0 || p.Partition >= MaxPartitions {
			return nil, fmt.Errorf("monitor: partition id %d outside [0, %d) in snapshot", p.Partition, MaxPartitions)
		}
	}
	return doc.WorkerSnapshot, nil
}
