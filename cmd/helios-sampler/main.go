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
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"helios/internal/coord"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/monitor"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/rpc"
	"helios/internal/sampler"
)

// busConn is the piece of *mq.RemoteBroker and *mq.Cluster the worker
// binaries use: queue traffic plus the control connection heartbeats and
// telemetry ride on.
type busConn interface {
	mq.Bus
	Client() *rpc.Client
}

// dialBus connects to the queue tier: a replicated cluster when brokers
// lists the replica set (leader routing and failover re-resolution live in
// the cluster client), else the single broker at brokerAddr.
func dialBus(brokers, brokerAddr string) (busConn, error) {
	if brokers != "" {
		return mq.DialCluster(strings.Split(brokers, ","), "", 0)
	}
	return mq.DialBroker(brokerAddr, 0)
}

func main() {
	configPath := flag.String("config", "cluster.json", "shared cluster configuration file")
	brokerAddr := flag.String("broker", "127.0.0.1:7070", "broker RPC address")
	brokers := flag.String("brokers", "", "comma-separated broker replica addresses (overrides -broker; first entry hosts the failover controller)")
	id := flag.Int("id", 0, "this worker's index in [0, samplers)")
	sampleThreads := flag.Int("sample-threads", 0, "sampling actor count (0 = default)")
	publishThreads := flag.Int("publish-threads", 0, "publisher actor count (0 = default)")
	seed := flag.Int64("seed", 1, "sampling RNG seed")
	commitEvery := flag.Duration("commit-every", 100*time.Millisecond, "how often poll positions are committed to the broker (the ingestion-lag signal)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file (restored on start, written periodically)")
	checkpointEvery := flag.Duration("checkpoint-every", time.Minute, "checkpoint interval")
	snapshotDir := flag.String("snapshot-dir", "", "warm-restart snapshot directory (derives the checkpoint path sampler-<id>.ckpt; overrides -checkpoint)")
	snapshotEvery := flag.Duration("snapshot-every", 0, "snapshot interval under -snapshot-dir (0 = -checkpoint-every)")
	heartbeatEvery := flag.Duration("heartbeat-every", 5*time.Second, "coordinator heartbeat interval (0 = disabled)")
	telemetryEvery := flag.Duration("telemetry-every", 5*time.Second, "cluster telemetry snapshot interval (0 = disabled)")
	faults := flag.String("faultpoints", "", "arm deterministic fault injection, e.g. rpc.client.write=error (chaos drills)")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	lv, ok := obs.ParseLevel(*logLevel)
	if !ok {
		log.Fatalf("helios-sampler: unknown -log-level %q", *logLevel)
	}
	logger := obs.NewLogger(os.Stderr, "sampler")
	logger.SetLevel(lv)
	logger.KeepTail(32)
	if err := faultpoint.ArmSpec(*faults); err != nil {
		log.Fatalf("helios-sampler: %v", err)
	}
	obs.RegisterBuildInfo(obs.Default(), "helios-sampler", nil)
	cfg, err := deploy.Load(*configPath)
	if err != nil {
		log.Fatalf("helios-sampler: %v", err)
	}
	rpc.RegisterMetrics(obs.Default())
	bus, err := dialBus(*brokers, *brokerAddr)
	if err != nil {
		log.Fatalf("helios-sampler: dial broker: %v", err)
	}
	defer bus.Close()
	if *snapshotDir != "" {
		*checkpoint = filepath.Join(*snapshotDir, fmt.Sprintf("sampler-%d.ckpt", *id))
		if *snapshotEvery > 0 {
			*checkpointEvery = *snapshotEvery
		}
	}

	w, err := sampler.New(sampler.Config{
		ID:             *id,
		NumSamplers:    cfg.File.Samplers,
		NumServers:     cfg.File.Servers,
		Plans:          cfg.Plans,
		Schema:         cfg.Schema,
		Broker:         bus,
		SampleThreads:  *sampleThreads,
		PublishThreads: *publishThreads,
		TTL:            cfg.TTL,
		Seed:           *seed,
		CommitEvery:    *commitEvery,
		Metrics:        obs.Default(),
	})
	if err != nil {
		log.Fatalf("helios-sampler: %v", err)
	}
	ops, err := obs.ServeDefault(*opsAddr)
	if err != nil {
		log.Fatalf("helios-sampler: ops listener: %v", err)
	}
	defer ops.Close()
	if ops != nil {
		log.Printf("helios-sampler: ops on %s", ops.Addr())
	}
	if *checkpoint != "" {
		if err := w.RestoreFile(*checkpoint); err == nil {
			upd, subs := w.ReplayFloor()
			logger.Info(0, "sampler.checkpoint", "restored checkpoint",
				"path", *checkpoint, "replay_from_upd", upd, "replay_from_subs", subs)
		} else if !os.IsNotExist(err) {
			log.Fatalf("helios-sampler: restore: %v", err)
		}
	}
	w.Start()
	logger.Info(0, "sampler.lifecycle", "worker running",
		"id", *id, "samplers", cfg.File.Samplers, "queries", len(cfg.Plans))

	stopCkpt := make(chan struct{})
	if *heartbeatEvery > 0 {
		// Heartbeats ride the broker connection, which reconnects by
		// itself — so a worker that cannot reach the broker misses beats
		// and is, correctly, reported dead by the coordinator.
		hb := coord.NewClient(bus.Client(), 0)
		name := fmt.Sprintf("sampler-%d", *id)
		go func() {
			t := time.NewTicker(*heartbeatEvery)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					//lint:allow droppederror reason=best-effort liveness beat; a missed beat just reads as dead until the next one lands
					_ = hb.Heartbeat(name, coord.KindSampler)
				}
			}
		}()
	}
	if *telemetryEvery > 0 {
		reporter := monitor.NewReporter(monitor.ReporterConfig{
			Name:     fmt.Sprintf("sampler-%d", *id),
			Kind:     string(coord.KindSampler),
			Every:    *telemetryEvery,
			Registry: obs.Default(),
			Tracer:   obs.DefaultTracer(),
			LogTail:  logger.Tail,
			Sink:     monitor.NewClient(bus.Client(), 0),
			Logger:   logger,
		})
		reporter.Start()
		defer reporter.Stop()
	}
	if *checkpoint != "" {
		go func() {
			t := time.NewTicker(*checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					if err := w.CheckpointFile(*checkpoint); err != nil {
						logger.Error(0, "sampler.checkpoint", "checkpoint failed", "path", *checkpoint, "err", err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopCkpt)
	log.Printf("helios-sampler: draining (stats: %+v)", w.Stats())
	w.Stop()
}
