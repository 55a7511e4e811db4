// Command helios-server runs one Helios serving worker (§4.3, §6): it
// consumes its sample queue into the query-aware sample cache and serves
// K-hop sampling queries over RPC for the frontend.
//
// Usage:
//
//	helios-server -config cluster.json -broker 127.0.0.1:7070 -id 0 -listen 127.0.0.1:7081
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
	role                                          cluster.ServerOptions
}

func declare(fs *flag.FlagSet) *flags {
	f := &flags{}
	o, w := &f.role, &f.role.Worker
	fs.StringVar(&f.config, "config", "cluster.json", "shared cluster configuration file")
	fs.StringVar(&f.broker, "broker", "127.0.0.1:7070", "broker RPC address; a comma-separated list names a replica set (first entry hosts the failover controller)")
	fs.IntVar(&w.ID, "id", 0, "this worker's index in [0, servers)")
	fs.StringVar(&o.Listen, "listen", "127.0.0.1:0", "address to serve sampling RPC on")
	fs.StringVar(&w.Store.Dir, "cache-dir", "", "hybrid-mode cache spill directory (empty = memory only)")
	fs.Int64Var(&w.Store.MemBudgetBytes, "cache-mem", 0, "cache memory budget in bytes before spilling (0 = default)")
	fs.IntVar(&w.ServeThreads, "serve-threads", 0, "serving actor count (0 = default)")
	fs.DurationVar(&w.CommitEvery, "commit-every", 0, "how often the sample-queue poll position is committed to the broker (0 = 100ms)")
	fs.StringVar(&f.snapshotDir, "snapshot-dir", "", "warm-restart snapshot directory: serving-<id>.snap is restored on boot and rewritten every -snapshot-every (empty = snapshots off)")
	fs.DurationVar(&o.SnapshotEvery, "snapshot-every", time.Minute, "cache snapshot interval under -snapshot-dir")
	fs.IntVar(&w.MaxBatch, "batch-max", 0, "largest sample batch accepted by one batched RPC (0 = 1024 default)")
	fs.DurationVar(&o.StatsEvery, "stats-every", 30*time.Second, "stats log interval (0 = off)")
	fs.DurationVar(&o.TelemetryEvery, "telemetry-every", 5*time.Second, "cluster telemetry snapshot interval; a snapshot is also the liveness beat (0 = disabled)")
	fs.StringVar(&f.faults, "faultpoints", "", "arm deterministic fault injection, e.g. mq.fetch=error:injected:3 (chaos drills)")
	fs.StringVar(&o.OpsAddr, "ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	fs.StringVar(&f.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.DurationVar(&w.SlowLog, "slow-log", 100*time.Millisecond, "log traced serves slower than this with their worst stage (0 = off)")
	return f
}

// options resolves the parsed flags into the role's options.
func (f *flags) options() cluster.ServerOptions {
	o := f.role
	o.Worker.Metrics, o.Worker.Tracer = obs.Default(), obs.DefaultTracer()
	if f.snapshotDir != "" {
		o.Snapshot = cluster.SnapshotPath(f.snapshotDir, o.Worker.ID)
	}
	return o
}

func main() {
	f := declare(flag.CommandLine)
	flag.Parse()
	err := cluster.RunWorker("helios-server", "serving", f.logLevel, f.faults, f.config, f.broker,
		func(cfg *deploy.Config, bus mq.Bus, logger *obs.Logger) (interface{ Close() }, error) {
			o := f.options()
			o.Logger = logger
			return cluster.StartServer(cfg, bus, o)
		})
	if err != nil {
		log.Fatalf("helios-server: %v", err)
	}
}
