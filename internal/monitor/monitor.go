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
//     a per-partition heat table over EWMA rate baselines, and
//     cluster-level stage rollups — served at GET /cluster and exported as
//     cluster.partition_heat{partition=…} / cluster.skew_score gauges
//     (the signal the elastic-topology migration planner consumes);
//   - a FlightRecorder persists a bounded on-disk ring of capture
//     documents (cluster view history + worst traces + slow-log lines)
//     whenever an SLO burn crosses its threshold or a worker dies, so
//     post-mortem evidence survives the process that observed it.
//
// Snapshots use the codec varint wire format with delta-encoded
// partition IDs: a snapshot for a 64-partition worker is a few hundred
// bytes, cheap enough to send every few seconds.
package monitor

import (
	"fmt"

	"helios/internal/codec"
)

// snapshotVersion versions the WorkerSnapshot wire encoding.
const snapshotVersion = 1

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

	Partitions []PartitionStats `json:"partitions,omitempty"`
	Stages     []StageP99       `json:"stages,omitempty"`
	SLOs       []SLOBurn        `json:"slos,omitempty"`
	Worst      []TraceSummary   `json:"worst,omitempty"`
	SlowLines  []string         `json:"slow_lines,omitempty"`
}

// Encode appends the snapshot's wire encoding to w. Partitions must be
// sorted by ascending Partition (Reporter emits them sorted); their IDs
// are delta-encoded against the previous entry.
func (s *WorkerSnapshot) Encode(w *codec.Writer) {
	w.Byte(snapshotVersion)
	w.String(s.Name)
	w.String(s.Kind)
	w.String(s.Version)
	w.Uvarint(s.Seq)
	w.Varint(s.StartNS)
	w.Varint(s.NowNS)

	w.Uvarint(uint64(len(s.Partitions)))
	prev := 0
	for i := range s.Partitions {
		p := &s.Partitions[i]
		w.Uvarint(uint64(p.Partition - prev))
		prev = p.Partition
		w.Varint(p.Served)
		w.Varint(p.SampleHits)
		w.Varint(p.SampleMisses)
		w.Varint(p.Lag)
		w.Varint(p.StalenessNS)
	}

	w.Uvarint(uint64(len(s.Stages)))
	for i := range s.Stages {
		st := &s.Stages[i]
		w.String(st.Stage)
		w.Varint(st.Count)
		w.Varint(st.P50NS)
		w.Varint(st.P99NS)
	}

	w.Uvarint(uint64(len(s.SLOs)))
	for i := range s.SLOs {
		b := &s.SLOs[i]
		w.String(b.Name)
		w.Varint(b.BurnRateMilli)
		w.Varint(b.Bad)
		w.Varint(b.Good)
	}

	w.Uvarint(uint64(len(s.Worst)))
	for i := range s.Worst {
		t := &s.Worst[i]
		w.Uvarint(t.ID)
		w.String(t.Op)
		w.Varint(t.TotalNS)
		w.String(t.WorstStage)
		w.Varint(t.WorstStageNS)
	}

	w.Uvarint(uint64(len(s.SlowLines)))
	for _, line := range s.SlowLines {
		w.String(line)
	}
}

// MaxPartitions bounds the partition ids a snapshot may name. A partition
// id is a serving worker's index, and every id a peer names becomes
// collector state and a gauge that live as long as the process, so the
// decoder refuses ids a deployment could not have.
const MaxPartitions = 1 << 12

// DecodeSnapshot parses one wire-encoded WorkerSnapshot. Every count is
// checked against the bytes left in the frame (codec.Reader.Count) before
// anything is allocated for it.
func DecodeSnapshot(b []byte) (*WorkerSnapshot, error) {
	r := codec.NewReader(b)
	if v := r.Byte(); r.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("monitor: snapshot version %d, want %d", v, snapshotVersion)
	}
	s := &WorkerSnapshot{
		Name:    r.String(),
		Kind:    r.String(),
		Version: r.String(),
		Seq:     r.Uvarint(),
		StartNS: r.Varint(),
		NowNS:   r.Varint(),
	}

	// Minimum encoded sizes: a partition is six varints, a stage or an SLO
	// a string and three varints, a trace two strings and three varints, a
	// slow line one string.
	prev := uint64(0)
	for i, n := 0, r.Count(6); i < n && r.Err() == nil; i++ {
		delta := r.Uvarint()
		if delta >= MaxPartitions-prev {
			return nil, fmt.Errorf("monitor: partition id past %d in snapshot", MaxPartitions)
		}
		prev += delta
		s.Partitions = append(s.Partitions, PartitionStats{
			Partition:    int(prev),
			Served:       r.Varint(),
			SampleHits:   r.Varint(),
			SampleMisses: r.Varint(),
			Lag:          r.Varint(),
			StalenessNS:  r.Varint(),
		})
	}
	for i, n := 0, r.Count(4); i < n && r.Err() == nil; i++ {
		s.Stages = append(s.Stages, StageP99{
			Stage: r.String(),
			Count: r.Varint(),
			P50NS: r.Varint(),
			P99NS: r.Varint(),
		})
	}
	for i, n := 0, r.Count(4); i < n && r.Err() == nil; i++ {
		s.SLOs = append(s.SLOs, SLOBurn{
			Name:          r.String(),
			BurnRateMilli: r.Varint(),
			Bad:           r.Varint(),
			Good:          r.Varint(),
		})
	}
	for i, n := 0, r.Count(5); i < n && r.Err() == nil; i++ {
		s.Worst = append(s.Worst, TraceSummary{
			ID:           r.Uvarint(),
			Op:           r.String(),
			TotalNS:      r.Varint(),
			WorstStage:   r.String(),
			WorstStageNS: r.Varint(),
		})
	}
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		s.SlowLines = append(s.SlowLines, r.String())
	}

	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
