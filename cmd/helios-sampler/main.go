// Command helios-sampler runs one Helios sampling worker (§4.2): it owns
// one partition of the graph-update stream, maintains the reservoir,
// feature and subscription tables for every registered one-hop query, and
// publishes refreshed samples to the serving workers' queues.
//
// Usage:
//
//	helios-sampler -config cluster.json -broker 127.0.0.1:7070 -id 0
package main

import (
	"flag"
	"log"
	"time"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/mq"
	"helios/internal/obs"
)

// flags is the binary's whole command line: where the deployment lives,
// the process plumbing, and the role's own options.
type flags struct {
	config, broker, snapshotDir, faults, logLevel string
	role                                          cluster.SamplerOptions
}

func declare(fs *flag.FlagSet) *flags {
	f := &flags{}
	o, w := &f.role, &f.role.Worker
	fs.StringVar(&f.config, "config", "cluster.json", "shared cluster configuration file")
	fs.StringVar(&f.broker, "broker", "127.0.0.1:7070", "broker RPC address; a comma-separated list names a replica set (first entry hosts the failover controller)")
	fs.IntVar(&w.ID, "id", 0, "this worker's index in [0, samplers)")
	fs.IntVar(&w.SampleThreads, "sample-threads", 0, "sampling actor count (0 = default)")
	fs.Int64Var(&w.Seed, "seed", 0, "sampling RNG seed")
	fs.StringVar(&f.snapshotDir, "snapshot-dir", "", "warm-restart snapshot directory: sampler-<id>.ckpt is restored on boot and rewritten every minute (empty = checkpoints off)")
	fs.DurationVar(&o.TelemetryEvery, "telemetry-every", 5*time.Second, "cluster telemetry snapshot interval; a snapshot is also the liveness beat (0 = disabled)")
	fs.StringVar(&f.faults, "faultpoints", "", "arm deterministic fault injection, e.g. rpc.client.write=error (chaos drills)")
	fs.StringVar(&o.OpsAddr, "ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	fs.StringVar(&f.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	return f
}

// options resolves the parsed flags into the role's options.
func (f *flags) options() cluster.SamplerOptions {
	o := f.role
	o.Worker.Metrics = obs.Default()
	if f.snapshotDir != "" {
		o.Checkpoint = cluster.CheckpointPath(f.snapshotDir, o.Worker.ID)
	}
	return o
}

func main() {
	f := declare(flag.CommandLine)
	flag.Parse()
	err := cluster.RunWorker("helios-sampler", "sampler", f.logLevel, f.faults, f.config, f.broker,
		func(cfg *deploy.Config, bus mq.Bus, logger *obs.Logger) (interface{ Close() }, error) {
			o := f.options()
			o.Logger = logger
			return cluster.StartSampler(cfg, bus, o)
		})
	if err != nil {
		log.Fatalf("helios-sampler: %v", err)
	}
}
