// Package coord implements the running half of the Helios coordinator
// (§4.1): the broker failover controller, which keeps each replica's
// status reports as its liveness beats. (Sampler, server and frontend
// liveness is the telemetry collector's: a telemetry report is the beat,
// see internal/monitor.) Its deployment-time half lives elsewhere: queries
// are registered and decomposed into one-hop plans when every process
// derives the shared deploy.Config, and periodic checkpointing is paced by
// the role assembler in internal/cluster.
package coord

// WorkerKind labels the processes that report telemetry; a reporter uses
// it as its kind and, with an index, as its name.
type WorkerKind string

const (
	// KindSampler identifies sampling workers.
	KindSampler WorkerKind = "sampler"
	// KindServer identifies serving workers.
	KindServer WorkerKind = "server"
	// KindFrontend identifies frontend gateways.
	KindFrontend WorkerKind = "frontend"
	// KindBroker identifies broker replicas.
	KindBroker WorkerKind = "broker"
)
