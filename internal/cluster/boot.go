package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"helios/internal/clock"
	"helios/internal/deploy"
	"helios/internal/frontend"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/sampler"
	"helios/internal/serving"
	"helios/internal/wire"
)

// Options shape a single-process deployment. The four role templates are
// the binaries' own option types; Boot fills the per-instance fields (IDs,
// listen addresses, peers, per-worker directories) and passes the rest
// through, so the zero Options boots every role with its defaults.
type Options struct {
	// Brokers picks the transport. 0 runs every worker on one shared
	// in-process *mq.Broker: no sockets, no coordinator and no frontend —
	// Ingest and Sample route in the caller's goroutine. R ≥ 1 is the cmd/
	// topology over loopback TCP: R broker replicas (replica 0 hosting
	// the control plane), every worker on its own broker connection,
	// serving workers behind RPC endpoints, and the frontend behind its
	// HTTP gateway.
	Brokers  int
	Broker   BrokerOptions
	Sampler  SamplerOptions
	Server   ServerOptions
	Frontend FrontendOptions
}

// Local is a Helios deployment running inside this process.
type Local struct {
	Config *deploy.Config
	// Broker is the queue: the shared bus in-process, replica 0's log over
	// TCP. Brokers holds the TCP broker roles (control plane on Brokers[0]).
	Broker  *mq.Broker
	Brokers []*Broker
	// Samplers holds the sampling workers; Servers flattens every serving
	// replica (replicas of partition j are Servers[j*R : (j+1)*R]).
	// SamplerRoles and ServerRoles are the same workers with their
	// lifecycles, endpoints and reporters.
	Samplers     []*sampler.Worker
	Servers      []*serving.Worker
	SamplerRoles []*Sampler
	ServerRoles  []*Server
	// Frontend is the TCP topology's frontend role; nil in-process.
	Frontend *Frontend

	router   *frontend.Router
	servPart graph.Partitioner
	rr       []atomic.Uint64 // round-robin cursor per serving partition
	// Close stops the deployment front to back: gateway and frontend,
	// serving workers, samplers, then the broker tier.
	lifecycle
}

// Boot builds and starts cfg's deployment in this process.
func Boot(cfg *deploy.Config, o Options) (_ *Local, err error) {
	c := &Local{
		Config:    cfg,
		servPart:  graph.NewPartitioner(cfg.File.Servers),
		rr:        make([]atomic.Uint64, cfg.File.Servers),
		lifecycle: newLifecycle(nil),
	}
	defer c.closeOn(&err)
	// dial hands each role its own view of the queue tier.
	var dial func() (mq.Bus, error)
	if o.Brokers == 0 {
		c.Broker = mq.NewBroker(o.Broker.Log)
		//lint:allow droppederror reason=teardown of a handle nobody reads again; durable segments were synced by their own policy
		c.onClose(func() { _ = c.Broker.Close() })
		dial = func() (mq.Bus, error) { return c.Broker, nil }
	} else {
		addrs, err := c.bootBrokers(o)
		if err != nil {
			return nil, err
		}
		dial = func() (mq.Bus, error) {
			bus, err := mq.Dial(addrs, 0)
			if err != nil {
				return nil, err
			}
			//lint:allow droppederror reason=client teardown at cluster close; nothing to act on
			c.onClose(func() { _ = bus.Close() })
			return bus, nil
		}
	}

	for i := 0; i < cfg.File.Samplers; i++ {
		bus, err := dial()
		if err != nil {
			return nil, err
		}
		so := o.Sampler
		so.Worker.ID = i
		s, err := StartSampler(cfg, bus, so)
		if err != nil {
			return nil, err
		}
		c.onClose(s.Close)
		c.SamplerRoles = append(c.SamplerRoles, s)
		c.Samplers = append(c.Samplers, s.Worker)
	}

	var servingAddrs []string
	for i := 0; i < cfg.File.Servers; i++ {
		for r := 0; r < cfg.File.Replicas; r++ {
			bus, err := dial()
			if err != nil {
				return nil, err
			}
			so := o.Server
			so.Worker.ID = i
			if dir := so.Worker.Store.Dir; dir != "" {
				so.Worker.Store.Dir = filepath.Join(dir, fmt.Sprintf("sew-%d", len(c.Servers)))
			}
			if o.Brokers > 0 {
				so.Listen = "127.0.0.1:0"
			}
			s, err := StartServer(cfg, bus, so)
			if err != nil {
				return nil, err
			}
			c.onClose(s.Close)
			c.ServerRoles = append(c.ServerRoles, s)
			c.Servers = append(c.Servers, s.Worker)
			servingAddrs = append(servingAddrs, s.Addr)
		}
	}

	bus, err := dial()
	if err != nil {
		return nil, err
	}
	if o.Brokers == 0 {
		updates, err := bus.OpenTopic(wire.TopicUpdates, cfg.File.Samplers)
		if err != nil {
			return nil, err
		}
		c.router = frontend.NewRouter(cfg, or(o.Frontend.Clock, clock.Wall()), func(p int, key uint64, payload []byte, _ uint64) error {
			_, err := updates.Append(p, key, payload)
			return err
		})
		return c, nil
	}
	fo := o.Frontend
	fo.Listen, fo.Servers = "127.0.0.1:0", servingAddrs
	if c.Frontend, err = StartFrontend(cfg, bus, fo); err != nil {
		return nil, err
	}
	c.onClose(c.Frontend.Close)
	c.router = c.Frontend.Node.Router
	return c, nil
}

// bootBrokers starts o.Brokers broker roles on loopback and returns their
// addresses. A replica set's members must know each other's addresses
// before any of them listens, so the ports are picked first.
func (c *Local) bootBrokers(o Options) ([]string, error) {
	addrs := []string{"127.0.0.1:0"}
	if o.Brokers > 1 {
		var err error
		if addrs, err = freeAddrs(o.Brokers); err != nil {
			return nil, err
		}
	}
	for i, addr := range addrs {
		bo := o.Broker
		bo.Listen = addr
		if o.Brokers > 1 {
			bo.Replication.Self, bo.Replication.Peers = i, addrs
		}
		if i > 0 {
			// One process, one registry: replica 0 exports the queue
			// series for the set (registered thrice, the gauges collide).
			bo.Registry = nil
		}
		b, err := StartBroker(bo)
		if err != nil {
			return nil, err
		}
		c.onClose(b.Close)
		c.Brokers = append(c.Brokers, b)
		addrs[i] = b.Addr
	}
	c.Broker = c.Brokers[0].Queue
	return addrs, nil
}

// freeAddrs picks n distinct loopback addresses that are free right now
// (every probe listener stays open until all n are chosen).
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// Ingest stamps and routes one graph update to the sampling partitions
// that need it — through the frontend over TCP, through the same Router
// in-process. A pre-assigned u.Trace survives the stamping, so callers can
// follow a traced update into the serving caches.
func (c *Local) Ingest(u graph.Update) error { return c.router.Ingest(u) }

// IngestedRecords counts updates accepted into the system.
func (c *Local) IngestedRecords() int64 { return c.router.Updates.Value() }

// Route returns a serving worker owning seed — the frontend's routing
// rule, round-robining across the partition's replicas.
func (c *Local) Route(seed graph.VertexID) *serving.Worker {
	p := c.servPart.Of(seed)
	r := int(c.rr[p].Add(1)) % c.Config.File.Replicas
	return c.Servers[p*c.Config.File.Replicas+r]
}

// Sample executes a sampling query on the serving worker owning seed:
// through the frontend and the serving RPC over TCP, by a direct local
// cache lookup in-process.
func (c *Local) Sample(qid query.ID, seed graph.VertexID) (*serving.Result, error) {
	if c.Frontend != nil {
		return c.Frontend.Node.Sample(qid, seed)
	}
	return c.Route(seed).Sample(qid, seed)
}

// Submit routes an asynchronous request through the owning worker's serving
// pool.
func (c *Local) Submit(req serving.Request) {
	c.Route(req.Seed).Submit(req)
}

// WaitQuiesce blocks until every queue is drained and every pool idle for
// three consecutive probes, or the timeout expires. The subscription
// cascade converges in at most K rounds, so quiescence implies the caches
// hold the complete reachable sample/feature sets.
func (c *Local) WaitQuiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) {
		if c.idle() {
			stable++
			if stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: not quiescent after %v", timeout)
}

func (c *Local) idle() bool {
	for _, w := range c.Samplers {
		if w.Lag() != 0 || w.SubsLag() != 0 {
			return false
		}
		st := w.Stats()
		if st.SamplingDepth != 0 || st.PublishDepth != 0 {
			return false
		}
	}
	for _, w := range c.Servers {
		if w.Lag() != 0 {
			return false
		}
		st := w.Stats()
		if st.UpdateDepth != 0 || st.ServeDepth != 0 {
			return false
		}
	}
	return true
}

// EnableCheckpoints checkpoints every sampling worker to CheckpointPath(dir,
// i) each interval (§4.1: the coordinator "periodically triggers
// checkpointing for fault tolerance").
func (c *Local) EnableCheckpoints(dir string, interval time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range c.SamplerRoles {
		s.saveEvery(CheckpointPath(dir, i), interval, "sampler.checkpoint", s.Worker.CheckpointFile)
	}
	return nil
}
