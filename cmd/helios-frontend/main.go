// Command helios-frontend runs the Helios front-end node: it routes graph
// updates into the broker and inference requests to the serving worker
// owning each seed (§4.1), exposed as an HTTP gateway.
//
// Usage:
//
//	helios-frontend -config cluster.json -broker 127.0.0.1:7070 \
//	    -servers 127.0.0.1:7081,127.0.0.1:7082 -listen 127.0.0.1:8080
//
// With "replicas": R in the config, -servers takes Servers×R addresses in
// partition-major order (all replicas of partition 0 first); the frontend
// fails over between the replicas of a partition and probes dead ones back
// in.
package main

import (
	"flag"
	"log"
	"strings"
	"time"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/mq"
	"helios/internal/obs"
)

// flags is the binary's whole command line: where the deployment lives,
// the process plumbing, and the role's own options.
type flags struct {
	config, broker, servers, faults, logLevel string
	role                                      cluster.FrontendOptions
}

func declare(fs *flag.FlagSet) *flags {
	f := &flags{}
	o := &f.role
	fs.StringVar(&f.config, "config", "cluster.json", "shared cluster configuration file")
	fs.StringVar(&f.broker, "broker", "127.0.0.1:7070", "broker RPC address; a comma-separated list names a replica set (first entry hosts the failover controller)")
	fs.StringVar(&f.servers, "servers", "", "comma-separated serving worker RPC addresses, partition-major (see replicas)")
	fs.StringVar(&o.Listen, "listen", "127.0.0.1:8080", "HTTP listen address")
	fs.IntVar(&o.ID, "id", 0, "this frontend's index (names it in the cluster view)")
	fs.DurationVar(&o.TelemetryEvery, "telemetry-every", 5*time.Second, "cluster telemetry snapshot interval (0 = disabled)")
	fs.StringVar(&f.faults, "faultpoints", "", "arm deterministic fault injection, e.g. rpc.dial=error (chaos drills)")
	fs.StringVar(&o.OpsAddr, "ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	fs.StringVar(&f.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.DurationVar(&o.SlowLog, "slow-log", 0, "log traced samples slower than this with their worst stage (0 = the SLO target)")
	fs.DurationVar(&o.SLOTarget, "slo-target", 0, "sample-latency SLO target (0 = 250ms default)")
	fs.DurationVar(&o.SLOWindow, "slo-window", 0, "SLO burn-rate window (0 = 1m default)")
	return f
}

// options resolves the parsed flags into the role's options.
func (f *flags) options() cluster.FrontendOptions {
	o := f.role
	o.Servers = strings.Split(f.servers, ",")
	o.Registry, o.Tracer = obs.Default(), obs.DefaultTracer()
	return o
}

func main() {
	f := declare(flag.CommandLine)
	flag.Parse()
	if f.servers == "" {
		log.Fatalf("helios-frontend: -servers is required")
	}
	err := cluster.RunWorker("helios-frontend", "frontend", f.logLevel, f.faults, f.config, f.broker,
		func(cfg *deploy.Config, bus mq.Bus, logger *obs.Logger) (interface{ Close() }, error) {
			o := f.options()
			o.Logger = logger
			return cluster.StartFrontend(cfg, bus, o)
		})
	if err != nil {
		log.Fatalf("helios-frontend: %v", err)
	}
}
