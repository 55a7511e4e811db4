package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"

	"helios/internal/deploy"
	"helios/internal/frontend"
	"helios/internal/mq"
	"helios/internal/rpc"
	"helios/internal/sampler"
	"helios/internal/serving"
	"helios/internal/workload"
)

// Topology sizes: the smallest deployment in which every role has a peer
// (two partitions on each side of the sample queues).
const (
	numSamplers = 2
	numServers  = 2
)

// deployJSON renders the shared cluster configuration the cmd/ binaries
// load from disk: the dataset's schema in generator order (so the type IDs
// inside generated updates match the deployment's) and one TopK query made
// of hops. TopK is what makes the sampled result a function of the stream,
// so an exact oracle exists.
func deployJSON(spec workload.DatasetSpec, hops []workload.QueryHopSpec) []byte {
	f := deploy.File{Samplers: numSamplers, Servers: numServers}
	for _, v := range spec.Vertices {
		f.VertexTypes = append(f.VertexTypes, v.Type)
	}
	for _, e := range spec.Edges {
		f.EdgeTypes = append(f.EdgeTypes, deploy.EdgeType{Name: e.Type, Src: e.Src, Dst: e.Dst})
	}
	var q strings.Builder
	fmt.Fprintf(&q, "g.V('%s')", spec.QuerySeed)
	for _, h := range hops {
		fmt.Fprintf(&q, ".outV('%s').sample(%d).by('TopK')", h.Edge, h.Fanout)
	}
	f.Queries = []string{q.String()}
	data, err := json.Marshal(f)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return data
}

// topology is one running deployment: every component the helios-broker,
// -sampler, -server and -frontend binaries would run, each on its own
// broker connection, talking over loopback TCP exactly as separate
// processes would. All settings are the components' defaults.
type topology struct {
	cfg *deploy.Config

	broker     *mq.Broker
	brokerAddr string
	samplers   []*sampler.Worker
	servers    []*serving.Worker
	// servingAddrs are the serving workers' RPC endpoints in partition order.
	servingAddrs []string
	fe           *frontend.Frontend
	gatewayAddr  string

	// closers run in reverse order on Close.
	closers []func()
}

// bootTopology starts the deployment described by cfg on ephemeral loopback
// ports. The SUT child and the traced run both boot through here, so the
// per-layer probes time the same assembly the end-to-end runs load.
func bootTopology(cfg *deploy.Config) (t *topology, err error) {
	t = &topology{cfg: cfg}
	defer func() {
		if err != nil {
			t.Close()
		}
	}()

	// helios-broker: one memory broker.
	t.broker = mq.NewBroker(mq.Options{})
	t.closers = append(t.closers, func() { t.broker.Close() })
	brokerSrv := rpc.NewServer()
	mq.ServeBroker(t.broker, brokerSrv)
	if t.brokerAddr, err = brokerSrv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	t.closers = append(t.closers, func() { brokerSrv.Close() })

	dial := func() (*mq.RemoteBroker, error) {
		bus, err := mq.DialBroker(t.brokerAddr, 0)
		if err == nil {
			t.closers = append(t.closers, func() { bus.Close() })
		}
		return bus, err
	}

	// helios-sampler × numSamplers.
	for i := 0; i < cfg.File.Samplers; i++ {
		bus, err := dial()
		if err != nil {
			return nil, err
		}
		w, err := sampler.New(sampler.Config{
			ID: i, NumSamplers: cfg.File.Samplers, NumServers: cfg.File.Servers,
			Plans: cfg.Plans, Schema: cfg.Schema, Broker: bus, Seed: int64(i),
		})
		if err != nil {
			return nil, err
		}
		w.Start()
		t.closers = append(t.closers, w.Stop)
		t.samplers = append(t.samplers, w)
	}

	// helios-server × numServers, each behind its own RPC endpoint.
	for i := 0; i < cfg.File.Servers; i++ {
		bus, err := dial()
		if err != nil {
			return nil, err
		}
		w, err := serving.New(serving.Config{
			ID: i, NumServers: cfg.File.Servers, Plans: cfg.Plans, Broker: bus,
		})
		if err != nil {
			return nil, err
		}
		w.Start()
		t.closers = append(t.closers, w.Stop)
		srv := rpc.NewServer()
		serving.ServeRPC(w, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, func() { srv.Close() })
		t.servers = append(t.servers, w)
		t.servingAddrs = append(t.servingAddrs, addr)
	}

	// helios-frontend: the routing library behind its HTTP gateway.
	bus, err := dial()
	if err != nil {
		return nil, err
	}
	if t.fe, err = frontend.New(cfg, bus, t.servingAddrs); err != nil {
		return nil, err
	}
	t.closers = append(t.closers, t.fe.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gw := &http.Server{Handler: t.fe.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		gw.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	t.closers = append(t.closers, func() { gw.Close(); <-done })
	t.gatewayAddr = ln.Addr().String()
	return t, nil
}

// Close tears the deployment down front to back: gateway, frontend, serving
// endpoints and workers, samplers, their broker connections, the broker.
func (t *topology) Close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}
