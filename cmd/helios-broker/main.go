// Command helios-broker runs the durable queue service all Helios stages
// communicate through (the Kafka role of §4.1), plus the coordinator's
// control surface: workers report telemetry snapshots (which double as
// their liveness beat) over the same reconnecting connection they use for
// queue traffic, and the aggregated cluster view is served at GET /cluster on
// the ops listener.
//
// Usage:
//
//	helios-broker -listen 127.0.0.1:7070 [-dir /var/lib/helios] [-retain 1000000]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"helios/internal/cluster"
	"helios/internal/monitor"
	"helios/internal/mq"
	"helios/internal/obs"
)

// flags is the binary's whole command line: the process plumbing and the
// role's own options.
type flags struct {
	replicas, fsync, flightDir, faults, logLevel string
	role                                         cluster.BrokerOptions
}

func declare(fs *flag.FlagSet) *flags {
	f := &flags{}
	o := &f.role
	fs.StringVar(&o.Listen, "listen", "127.0.0.1:7070", "address to serve the broker RPC on")
	fs.StringVar(&o.Log.Dir, "dir", "", "directory for durable log segments (empty = memory only)")
	fs.IntVar(&o.Log.RetainRecords, "retain", 0, "records retained per partition (0 = unbounded)")
	fs.StringVar(&f.replicas, "replicas", "", "comma-separated RPC addresses of all broker replicas (empty = unreplicated); index-aligned across the set")
	fs.IntVar(&o.Replication.Self, "self", 0, "this broker's index into -replicas")
	fs.IntVar(&o.Replication.Quorum, "quorum", 0, "replicas (leader included) that must hold an append before it is acked (0 = majority)")
	fs.StringVar(&f.fsync, "fsync", "interval", "segment durability before ack: never, interval (every 4096 appends), always")
	fs.DurationVar(&o.ReplReportEvery, "repl-report-every", 0, "replication-status report cadence, doubling as the broker liveness beat (0 = 500ms)")
	fs.DurationVar(&o.ReplDeadAfter, "repl-dead-after", 0, "report silence before a replica's partitions fail over; replica 0 runs the controller (0 = 3s)")
	fs.Int64Var(&o.MaxIngestLag, "max-ingest-lag", 0, "refuse appends to the updates topic once a partition's unconsumed backlog exceeds this (0 = unlimited)")
	fs.DurationVar(&o.TelemetryEvery, "telemetry-every", 5*time.Second, "expected worker telemetry cadence (drives /cluster staleness and death detection)")
	fs.StringVar(&f.flightDir, "flight-dir", "", "flight-recorder capture directory, keeping the newest 32 captures (empty = captures disabled)")
	fs.StringVar(&f.faults, "faultpoints", "", "arm deterministic fault injection, e.g. mq.append=error:injected:3 (chaos drills)")
	fs.StringVar(&o.OpsAddr, "ops-addr", "", "serve /metrics, /traces, /slo, /cluster and pprof on this address (empty = disabled)")
	fs.StringVar(&f.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	return f
}

// options resolves the parsed flags into the role's options.
func (f *flags) options() (cluster.BrokerOptions, error) {
	o := f.role
	var ok bool
	if o.Log.Fsync, ok = mq.ParseFsyncPolicy(f.fsync); !ok {
		return o, fmt.Errorf("unknown -fsync %q (want never, interval or always)", f.fsync)
	}
	if f.replicas != "" {
		o.Replication.Peers = strings.Split(f.replicas, ",")
	}
	o.Registry, o.Collector.Registry = obs.Default(), obs.Default()
	if f.flightDir != "" {
		var err error
		if o.Collector.Recorder, err = monitor.NewFlightRecorder(f.flightDir, 0, nil); err != nil {
			return o, fmt.Errorf("flight recorder: %w", err)
		}
	}
	return o, nil
}

func main() {
	f := declare(flag.CommandLine)
	flag.Parse()
	logger, err := cluster.Setup("helios-broker", "broker", f.logLevel, f.faults)
	if err != nil {
		log.Fatalf("helios-broker: %v", err)
	}
	o, err := f.options()
	if err != nil {
		log.Fatalf("helios-broker: %v", err)
	}
	o.Logger = logger
	role, err := cluster.StartBroker(o)
	if err != nil {
		log.Fatalf("helios-broker: %v", err)
	}
	cluster.AwaitSignal()
	logger.Info(0, "mq.lifecycle", "shutting down")
	role.Close()
}
