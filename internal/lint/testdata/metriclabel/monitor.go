package metriclabel

import "strconv"

// The monitor collector's gauge shapes: per-partition heat/skew gauges
// whose partition label comes from federated snapshot structs, not from
// request parameters.

// PartitionStats mimics monitor.PartitionStats: a struct field is
// deployment topology (the partition map is fixed at deploy time), not
// request data.
type PartitionStats struct {
	Partition int
	Served    int64
}

// registerPartitionHeat is the collector's disciplined shape: the
// partition label value is drawn from a struct-typed parameter field.
func registerPartitionHeat(reg *Registry, parts []PartitionStats) {
	for _, p := range parts {
		part := p.Partition
		reg.GaugeFunc("cluster.partition_heat", func() int64 { return 0 },
			"partition", strconv.Itoa(part))
	}
	reg.GaugeFunc("cluster.skew_score", func() int64 { return 0 })
	reg.GaugeFunc("cluster.workers", func() int64 { return 0 })
}

// registerPerRequestPartition labels a gauge with a partition routed for
// one request — same metric names, but the value now varies per call.
func registerPerRequestPartition(reg *Registry, seed uint64) {
	part := int(seed % 64)
	reg.Gauge("cluster.partition_heat", "partition", strconv.Itoa(part)) // want metriclabel
}

// registerWorkerName draws the worker label from the telemetry sender's
// self-reported name string: unbounded without the struct-field shape.
func registerWorkerName(reg *Registry, worker string) {
	reg.Gauge("cluster.worker_seq", "worker", worker) // want metriclabel
}

// registerAllowedWorker is the suppressed monitor shape: snapshot names
// are admitted by the collector, which bounds them to the deployment.
func registerAllowedWorker(reg *Registry, worker string) {
	//lint:allow metriclabel reason=fixture: worker names are admission-controlled by the collector, bounded to the deployed fleet
	reg.Gauge("cluster.worker_uptime", "worker", worker)
}
