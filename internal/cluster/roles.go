// Package cluster assembles Helios deployments (§4.1). The architecture is
// one fixed shape — a broker tier that also hosts the coordinator, M
// sampling workers, N serving workers, the frontend — and this package is
// the one place that shape is spelled out: four role constructors, each
// owning everything its cmd/helios-* binary runs after flag parsing, and
// Boot, which composes them inside one process.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"helios/internal/actor"
	"helios/internal/clock"
	"helios/internal/coord"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/frontend"
	"helios/internal/monitor"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/rpc"
	"helios/internal/sampler"
	"helios/internal/serving"
	"helios/internal/wire"
)

// lifecycle is what every role shares: periodic loops that stop first, then
// closers run in reverse order of registration, once.
type lifecycle struct {
	log     *obs.Logger
	loops   []*actor.Loop
	closers []func()
	once    sync.Once
}

func (l *lifecycle) onClose(fn func()) { l.closers = append(l.closers, fn) }

// every calls fn each interval on its own goroutine until the role closes;
// a non-positive interval never calls it.
func (l *lifecycle) every(interval time.Duration, fn func()) {
	l.loops = append(l.loops, actor.Every(interval, fn))
}

// Close stops the role: periodic work first, then everything the
// constructor started, newest first. A second Close is a no-op.
func (l *lifecycle) Close() {
	l.once.Do(func() {
		for _, loop := range l.loops {
			loop.Stop()
		}
		for i := len(l.closers) - 1; i >= 0; i-- {
			l.closers[i]()
		}
	})
}

// closeOn, deferred by a constructor, unwinds the half-built role when the
// constructor returns an error.
func (l *lifecycle) closeOn(err *error) {
	if *err != nil {
		l.Close()
	}
}

// or returns v, or def when v is the zero value.
func or[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// restore loads a role's saved state from path before its worker starts. A
// missing file is a cold start, not an error.
func restore(path string, load func(string) error) (restored bool, err error) {
	if path == "" {
		return false, nil
	}
	if err := load(path); os.IsNotExist(err) {
		return false, nil
	} else if err != nil {
		return false, fmt.Errorf("restore %s: %w", path, err)
	}
	return true, nil
}

// saveEvery rewrites the role's saved state at path each interval.
func (l *lifecycle) saveEvery(path string, interval time.Duration, stage string, save func(string) error) {
	if path == "" {
		return
	}
	l.every(interval, func() {
		if err := save(path); err != nil {
			l.log.Error(0, stage, "periodic save failed", "path", path, "err", err)
		}
	})
}

// endpoint is a role's RPC listener. Stopping it severs every connection
// but leaves the role's state alone — a transport fault, not a crash — and
// restarting serves the same handlers on the same address again.
type endpoint struct {
	// Addr is the bound address.
	Addr  string
	srv   *rpc.Server
	mount func(*rpc.Server)
}

func (e *endpoint) listen(addr string, mount func(*rpc.Server)) error {
	srv := rpc.NewServer()
	mount(srv)
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	e.Addr, e.srv, e.mount = bound, srv, mount
	return nil
}

// StopEndpoint closes the listener and every connection on it, waiting for
// in-flight handlers.
func (e *endpoint) StopEndpoint() {
	//lint:allow droppederror reason=listener teardown; the role is closing or the caller is injecting this very fault
	_ = e.srv.Close()
}

// RestartEndpoint serves again on Addr after StopEndpoint. The old socket
// may linger briefly, so the bind is retried for about a second.
func (e *endpoint) RestartEndpoint() error {
	var err error
	for i := 0; i < 100; i++ {
		if err = e.listen(e.Addr, e.mount); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("cluster: rebind %s: %w", e.Addr, err)
}

// Control is how a role shows up on the control plane; the fields are the
// flags of the same names on every role binary.
type Control struct {
	// TelemetryEvery paces telemetry snapshots to the coordinator's
	// collector (on the broker: its death scan and self-report). 0 leaves
	// the role's Reporter for the caller to drive.
	TelemetryEvery time.Duration
	// OpsAddr serves the process registry, traces, SLOs and pprof; empty
	// disables.
	OpsAddr string
	// Logger receives lifecycle and failure events, and its tail rides in
	// telemetry snapshots. Nil is silent.
	Logger *obs.Logger
}

// serveOps starts the role's ops listener.
func (l *lifecycle) serveOps(addr string, routes ...obs.Route) error {
	ops, err := obs.ServeDefault(addr, routes...)
	if err != nil {
		return fmt.Errorf("ops listener: %w", err)
	}
	if ops != nil {
		l.log.Info(0, "cluster.lifecycle", "ops listener up", "addr", ops.Addr())
		//lint:allow droppederror reason=ops listener teardown at role close; nothing to act on
		l.onClose(func() { _ = ops.Close() })
	}
	return nil
}

// report puts a worker role on the control plane: a telemetry snapshot
// every telemetryEvery, which is also its liveness beat. Snapshots ride the
// bus's reconnecting control connection, so a worker cut off from the
// broker misses them and is, correctly, the one /cluster shows going stale
// and then dead. A bus with no control connection (the in-process broker)
// has no collector behind it and reports nothing.
func (l *lifecycle) report(bus mq.Bus, kind coord.WorkerKind, id int, telemetryEvery time.Duration, rc monitor.ReporterConfig) *monitor.Reporter {
	rb, ok := bus.(*mq.RemoteBroker)
	if !ok {
		return nil
	}
	name := fmt.Sprintf("%s-%d", kind, id)
	rc.Name, rc.Kind, rc.LogTail, rc.Logger = name, string(kind), l.log.Tail, l.log
	rc.Sink = monitor.NewClient(rb.Client(), 0)
	r := monitor.NewReporter(rc)
	l.every(telemetryEvery, func() {
		//lint:allow droppederror reason=report failures are logged in ReportOnce and retried next interval
		_ = r.ReportOnce()
	})
	return r
}

// BrokerOptions configures the broker role.
type BrokerOptions struct {
	// Listen is the RPC address queue traffic and telemetry arrive on.
	Listen string
	// Log configures the durable queue itself.
	Log mq.Options
	// MaxIngestLag refuses appends to the updates topic once a partition's
	// unconsumed backlog exceeds it; 0 is unlimited.
	MaxIngestLag int64
	// Replication names the replica set and this broker's place in it; no
	// Peers means unreplicated. Replica 0 — and an unreplicated broker —
	// hosts the control plane.
	Replication mq.ReplicationConfig
	// ReplReportEvery paces replication-status reports, which double as
	// the broker's liveness beat (0 = 500ms); a replica silent for
	// ReplDeadAfter has its partitions failed over (0 = 3s).
	ReplReportEvery, ReplDeadAfter time.Duration
	// Collector is the telemetry collector's template (flight recorder,
	// clock, capture policy); Interval defaults to TelemetryEvery.
	Collector monitor.CollectorConfig
	// Registry receives the queue, transport and coordinator metrics; nil
	// registers none.
	Registry *obs.Registry
	Control
}

// Broker is a running broker role.
type Broker struct {
	Queue *mq.Broker
	// Collector and Reporter (the host's own telemetry, fed straight into
	// Collector) are the control plane, nil on replicas other than 0;
	// Failover is nil on an unreplicated broker too.
	Collector *monitor.Collector
	Reporter  *monitor.Reporter
	Failover  *coord.Failover
	endpoint
	lifecycle
}

// StartBroker runs the broker role: the queue, its RPC endpoint, and on
// the control-plane host the coordinator's whole surface.
func StartBroker(o BrokerOptions) (_ *Broker, err error) {
	o.ReplReportEvery = or(o.ReplReportEvery, 500*time.Millisecond)
	o.ReplDeadAfter = or(o.ReplDeadAfter, 3*time.Second)
	b := &Broker{Queue: mq.NewBroker(o.Log), lifecycle: lifecycle{log: o.Logger}}
	defer b.closeOn(&err)
	closeQueue := func() {
		if err := b.Queue.Close(); err != nil {
			b.log.Error(0, "mq.lifecycle", "broker close failed", "err", err)
		}
	}
	b.onClose(closeQueue)
	if o.MaxIngestLag > 0 {
		b.Queue.SetLagBound(wire.TopicUpdates, o.MaxIngestLag)
	}
	peers, self := o.Replication.Peers, o.Replication.Self
	if len(peers) > 0 {
		if err := b.Queue.EnableReplication(o.Replication); err != nil {
			return nil, err
		}
	}
	if o.Registry != nil {
		b.Queue.RegisterMetrics(o.Registry)
		rpc.RegisterMetrics(o.Registry)
	}
	if self == 0 || len(peers) == 0 {
		if err := b.startControlPlane(o); err != nil {
			return nil, err
		}
	} else {
		// Followers report their offsets to the controller on replica 0.
		b.every(o.ReplReportEvery, func() {
			//lint:allow droppederror reason=best-effort status beat; a missed report just reads as dead until the next one lands
			_ = mq.ReportReplStatus(b.Queue.Peer(0), self, b.Queue.ReplOffsets(), o.ReplReportEvery)
		})
	}
	err = b.listen(o.Listen, func(srv *rpc.Server) {
		mq.ServeBroker(b.Queue, srv)
		if b.Collector != nil {
			monitor.ServeRPC(b.Collector, srv)
		}
		if b.Failover != nil {
			b.Failover.ServeRPC(srv)
		}
	})
	if err != nil {
		return nil, err
	}
	b.onClose(b.StopEndpoint)
	// The queue closes before the endpoint drains: only Queue.Close ends a
	// parked quorum wait, which StopEndpoint would otherwise wait out. The
	// second Close, registered first above, is a no-op.
	b.onClose(closeQueue)
	var routes []obs.Route
	if b.Collector != nil {
		routes = append(routes, obs.Route{Pattern: "GET /cluster", Handler: b.Collector.Handler()})
	}
	if err := b.serveOps(o.OpsAddr, routes...); err != nil {
		return nil, err
	}
	b.log.Info(0, "mq.lifecycle", "broker serving", "addr", b.Addr, "dir", o.Log.Dir,
		"retain", o.Log.RetainRecords, "replicas", len(peers), "self", self, "fsync", o.Log.Fsync.String())
	return b, nil
}

// startControlPlane builds the coordinator surface hosted beside the queue:
// the telemetry collector with the host's own self-report and — for a
// replica set — the failover controller.
func (b *Broker) startControlPlane(o BrokerOptions) error {
	cc := o.Collector
	if cc.Interval == 0 {
		cc.Interval = o.TelemetryEvery
	}
	cc.Logger = b.log
	b.Collector = monitor.NewCollector(cc)
	b.Reporter = monitor.NewReporter(monitor.ReporterConfig{
		Name: "broker", Kind: string(coord.KindBroker),
		Registry: o.Registry, Tracer: obs.DefaultTracer(),
		LogTail: b.log.Tail, Sink: b.Collector, Logger: b.log,
	})
	b.every(o.TelemetryEvery, func() {
		b.Collector.Tick()
		//lint:allow droppederror reason=the in-process collector sink never fails
		_ = b.Reporter.ReportOnce()
	})

	peers := o.Replication.Peers
	if len(peers) == 0 {
		return nil
	}
	// The controller pushes partition maps to the other replicas over the
	// queue's peer connections and to its own queue directly.
	b.Failover = coord.NewFailover(coord.FailoverConfig{
		Peers:     len(peers),
		DeadAfter: o.ReplDeadAfter,
		Logger:    b.log,
		Notify: func(peer int, pm mq.PartMap) error {
			if peer == 0 {
				b.Queue.ApplyPartMap(pm)
				return nil
			}
			return mq.SendLead(b.Queue.Peer(peer), pm, o.ReplDeadAfter)
		},
	})
	if o.Registry != nil {
		b.Failover.RegisterMetrics(o.Registry)
	}
	b.every(o.ReplReportEvery, func() {
		b.Failover.Report(0, b.Queue.ReplOffsets())
		b.Failover.Step()
	})
	return nil
}

// snapshotEvery is how often a sampler rewrites its checkpoint and a
// server its cache snapshot.
const snapshotEvery = time.Minute

// CheckpointPath is the file sampling worker i checkpoints to under dir.
func CheckpointPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("sampler-%d.ckpt", i))
}

// SnapshotPath is the file serving worker i snapshots its cache to under dir.
func SnapshotPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("serving-%d.snap", i))
}

// SamplerOptions configures the sampler role.
type SamplerOptions struct {
	// Worker is the sampling worker's configuration template: the caller
	// sets ID and the tuning knobs; NumSamplers, NumServers, Plans, Schema,
	// TTL and Broker are filled from the deployment and the bus.
	Worker sampler.Config
	// Checkpoint is restored before the worker starts and rewritten every
	// minute; empty disables both.
	Checkpoint string
	Control
}

// Sampler is a running sampler role.
type Sampler struct {
	Worker *sampler.Worker
	// Reporter assembles the worker's telemetry; nil on a bus with no
	// control connection.
	Reporter *monitor.Reporter
	lifecycle
}

// StartSampler runs one sampling worker (§4.2) of cfg's deployment on bus.
func StartSampler(cfg *deploy.Config, bus mq.Bus, o SamplerOptions) (_ *Sampler, err error) {
	wc := o.Worker
	wc.NumSamplers, wc.NumServers = cfg.File.Samplers, cfg.File.Servers
	wc.Plans, wc.Schema, wc.TTL, wc.Broker = cfg.Plans, cfg.Schema, cfg.TTL, bus
	if wc.Metrics == nil {
		wc.Metrics = obs.NewRegistry()
	}
	w, err := sampler.New(wc)
	if err != nil {
		return nil, err
	}
	s := &Sampler{Worker: w, lifecycle: lifecycle{log: o.Logger}}
	defer s.closeOn(&err)
	if ok, err := restore(o.Checkpoint, w.RestoreFile); err != nil {
		return nil, err
	} else if ok {
		upd, subs := w.ReplayFloor()
		s.log.Info(0, "sampler.checkpoint", "restored checkpoint",
			"path", o.Checkpoint, "replay_from_upd", upd, "replay_from_subs", subs)
	}
	w.Start()
	s.onClose(w.Stop)
	s.saveEvery(o.Checkpoint, snapshotEvery, "sampler.checkpoint", w.CheckpointFile)
	s.Reporter = s.report(bus, coord.KindSampler, wc.ID, o.TelemetryEvery,
		monitor.ReporterConfig{Registry: wc.Metrics})
	if err := s.serveOps(o.OpsAddr); err != nil {
		return nil, err
	}
	s.log.Info(0, "sampler.lifecycle", "worker running",
		"id", wc.ID, "samplers", wc.NumSamplers, "queries", len(wc.Plans))
	return s, nil
}

// ServerOptions configures the server role.
type ServerOptions struct {
	// Worker is the serving worker's configuration template: the caller
	// sets ID and the tuning knobs; NumServers, Plans, TTL and Broker are
	// filled from the deployment.
	Worker serving.Config
	// Listen is the sampling RPC address; empty serves no RPC (in-process
	// callers use Worker directly).
	Listen string
	// Snapshot is restored before the worker starts and rewritten every
	// minute; empty disables both.
	Snapshot string
	Control
}

// Server is a running server role.
type Server struct {
	Worker *serving.Worker
	// Reporter assembles the worker's telemetry, its partition's serve
	// counters included; nil on a bus with no control connection.
	Reporter *monitor.Reporter
	endpoint
	lifecycle
}

// StartServer runs one serving worker (§4.3, §6) of cfg's deployment on bus.
func StartServer(cfg *deploy.Config, bus mq.Bus, o ServerOptions) (_ *Server, err error) {
	wc := o.Worker
	wc.NumServers, wc.Plans, wc.TTL, wc.Broker = cfg.File.Servers, cfg.Plans, cfg.TTL, bus
	wc.Logger = o.Logger
	if wc.Metrics == nil {
		wc.Metrics = obs.NewRegistry()
	}
	if wc.Tracer == nil {
		wc.Tracer = obs.NewTracer(0, 0)
	}
	w, err := serving.New(wc)
	if err != nil {
		return nil, err
	}
	s := &Server{Worker: w, lifecycle: lifecycle{log: o.Logger}}
	defer s.closeOn(&err)
	if ok, err := restore(o.Snapshot, w.RestoreFile); err != nil {
		return nil, err
	} else if ok {
		s.log.Info(0, "serving.snapshot", "restored snapshot", "path", o.Snapshot, "replay_from", w.ReplayFloor())
	}
	w.Start()
	s.onClose(w.Stop)
	if o.Listen != "" {
		if err := s.listen(o.Listen, func(srv *rpc.Server) { serving.ServeRPC(w, srv) }); err != nil {
			return nil, err
		}
		s.onClose(s.StopEndpoint)
	}
	s.saveEvery(o.Snapshot, snapshotEvery, "serving.snapshot", w.SnapshotFile)
	s.Reporter = s.report(bus, coord.KindServer, wc.ID, o.TelemetryEvery, monitor.ReporterConfig{
		Registry: wc.Metrics, Tracer: wc.Tracer,
		Partitions: func() []monitor.PartitionStats {
			st := w.Stats()
			return []monitor.PartitionStats{{
				Partition:    w.ID(),
				Served:       st.Served,
				SampleHits:   st.SampleHits,
				SampleMisses: st.SampleMisses,
				Lag:          w.Lag(),
				StalenessNS:  st.StalenessNS,
			}}
		},
	})
	if err := s.serveOps(o.OpsAddr); err != nil {
		return nil, err
	}
	s.log.Info(0, "serving.lifecycle", "worker serving", "id", wc.ID, "servers", wc.NumServers, "addr", s.Addr)
	return s, nil
}

// FrontendOptions configures the frontend role.
type FrontendOptions struct {
	// ID names this frontend in the cluster view.
	ID int
	// Listen is the HTTP gateway's address; Servers are the serving
	// workers' RPC addresses, partition-major (see frontend.New).
	Listen  string
	Servers []string
	// SLOTarget and SLOWindow replace the sample-latency objective's
	// defaults; SlowLog is the slow-sample log threshold (0 = the target).
	SLOTarget, SLOWindow, SlowLog time.Duration
	// Clock, Registry and Tracer replace the frontend's private ones.
	Clock    clock.Clock
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Control
}

// shutdownGrace bounds how long a closing gateway waits for in-flight
// requests before cutting them.
const shutdownGrace = 10 * time.Second

// Frontend is a running frontend role.
type Frontend struct {
	Node *frontend.Frontend
	// Bus is the broker connection updates are published on; Addr the HTTP
	// gateway's bound address.
	Bus  mq.Bus
	Addr string
	// Reporter carries the gateway SLO burn and worst traces the flight
	// recorder captures on; nil on a bus with no control connection.
	Reporter *monitor.Reporter
	lifecycle
}

// StartFrontend runs the frontend (§4.1) of cfg's deployment on bus behind
// its HTTP gateway. Close lets in-flight requests finish before the
// serving connections go.
func StartFrontend(cfg *deploy.Config, bus mq.Bus, o FrontendOptions) (_ *Frontend, err error) {
	fe, err := frontend.New(cfg, bus, o.Servers)
	if err != nil {
		return nil, err
	}
	f := &Frontend{Node: fe, Bus: bus, lifecycle: lifecycle{log: o.Logger}}
	defer f.closeOn(&err)
	f.onClose(fe.Close)
	fe.UseObs(o.Clock, o.Registry, o.Tracer)
	if o.SLOTarget > 0 || o.SLOWindow > 0 {
		fe.SetSLO(o.SLOTarget, o.SLOWindow)
	}
	fe.SetLogger(o.Logger, o.SlowLog)
	fe.SetOverload(cfg.File.Overload)

	// The frontend owns no partition: its snapshots carry the gateway's
	// view only.
	f.Reporter = f.report(bus, coord.KindFrontend, o.ID, o.TelemetryEvery,
		monitor.ReporterConfig{Registry: fe.Metrics(), Tracer: fe.Tracer()})
	if err := f.serveOps(o.OpsAddr); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", o.Listen)
	if err != nil {
		return nil, err
	}
	f.Addr = ln.Addr().String()
	conns := &busyConns{busy: make(map[net.Conn]struct{})}
	gw := &http.Server{Handler: fe.Handler(), ConnState: conns.track}
	done := make(chan struct{})
	go func() {
		defer close(done)
		//lint:allow droppederror reason=Serve always returns ErrServerClosed once the closer below runs
		_ = gw.Serve(ln)
	}()
	f.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		// Shutdown notices idle connections at a poll that backs off to
		// 500 ms; each round ends when no connection is busy, and the next
		// finds them idle at once.
		err := context.Canceled
		for errors.Is(err, context.Canceled) && ctx.Err() == nil {
			round, end := context.WithCancel(ctx)
			go func(idle <-chan struct{}) {
				select {
				case <-idle:
				case <-round.Done():
				}
				end()
			}(conns.idle())
			err = gw.Shutdown(round)
			end()
		}
		if err != nil {
			f.log.Warn(0, "frontend.lifecycle", "gateway drain cut short", "err", err)
			//lint:allow droppederror reason=forced close after the grace period; nothing further to do
			_ = gw.Close()
		}
		<-done
	})
	f.log.Info(0, "frontend.lifecycle", "gateway serving", "addr", f.Addr, "servers", len(o.Servers))
	return f, nil
}

// busyConns counts the gateway's connections that are reading or serving a
// request: its ConnState hook.
type busyConns struct {
	mu      sync.Mutex
	busy    map[net.Conn]struct{}
	waiters []chan struct{}
}

func (b *busyConns) track(c net.Conn, state http.ConnState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if state == http.StateNew || state == http.StateActive {
		b.busy[c] = struct{}{}
		return
	}
	delete(b.busy, c)
	if len(b.busy) == 0 {
		for _, w := range b.waiters {
			close(w)
		}
		b.waiters = nil
	}
}

// idle returns a channel closed once no connection is busy.
func (b *busyConns) idle() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan struct{})
	if len(b.busy) == 0 {
		close(ch)
	} else {
		b.waiters = append(b.waiters, ch)
	}
	return ch
}

// Setup is what every role binary does between flag parsing and starting
// its role: the structured logger at the requested level, armed fault
// points, and the process registry's build and transport metrics.
func Setup(binary, component, logLevel, faults string) (*obs.Logger, error) {
	lv, ok := obs.ParseLevel(logLevel)
	if !ok {
		return nil, fmt.Errorf("unknown -log-level %q", logLevel)
	}
	logger := obs.NewLogger(os.Stderr, component)
	logger.SetLevel(lv)
	logger.KeepTail(32)
	if err := faultpoint.ArmSpec(faults); err != nil {
		return nil, err
	}
	obs.RegisterBuildInfo(obs.Default(), binary, nil)
	rpc.RegisterMetrics(obs.Default())
	return logger, nil
}

// AwaitSignal blocks until the process is asked to stop (SIGINT, SIGTERM).
func AwaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// RunWorker is the body the three worker binaries share after flag parsing:
// process setup, the deployment's shared configuration, the connection to
// the queue tier (broker lists one address, or a replica set's, comma
// separated), the role start builds on them, and a drained stop on
// SIGINT/SIGTERM.
func RunWorker(binary, component, logLevel, faults, config, broker string,
	start func(*deploy.Config, mq.Bus, *obs.Logger) (interface{ Close() }, error)) error {
	logger, err := Setup(binary, component, logLevel, faults)
	if err != nil {
		return err
	}
	cfg, err := deploy.Load(config)
	if err != nil {
		return err
	}
	bus := mq.Dial(strings.Split(broker, ","), 0)
	defer bus.Close()
	role, err := start(cfg, bus, logger)
	if err != nil {
		return err
	}
	AwaitSignal()
	role.Close()
	return nil
}
