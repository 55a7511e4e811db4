// Package metriclabel exercises the label-cardinality analyzer with a
// local mimic of the obs registry surface.
package metriclabel

import "strconv"

// Registry mimics obs.Registry.
type Registry struct{}

// Counter mimics obs.Registry.Counter.
func (r *Registry) Counter(name string, labels ...string) {}

// Gauge mimics obs.Registry.Gauge.
func (r *Registry) Gauge(name string, labels ...string) {}

// Histogram mimics obs.Registry.Histogram.
func (r *Registry) Histogram(name string, labels ...string) {}

// GaugeFunc mimics obs.Registry.GaugeFunc: name, callback, then labels.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {}

// AddCounter mimics obs.Registry.AddCounter: the component's own counter,
// name, then labels.
func (r *Registry) AddCounter(c *int64, name string, labels ...string) {}

// Stage mimics obs.Registry.Stage: the stage name keys a process-lifetime
// histogram family, then labels.
func (r *Registry) Stage(stage string, labels ...string) {}

// SLO mimics obs.Registry.SLO: name, target, objective, window.
func (r *Registry) SLO(name string, target, objective, window int64) {}

// registerBounded is the disciplined shape: constant keys, constant or
// configuration-derived values.
func registerBounded(reg *Registry) {
	reg.Counter("ingest.updates", "stage", "ingest")
	reg.GaugeFunc("queue.depth", func() int64 { return 0 }, "stage", "serve")
	reg.AddCounter(new(int64), "mq.appended", "topic", "updates")
}

// registerRequestDerived leaks request data into label values.
func registerRequestDerived(reg *Registry, peer string, shard int) {
	reg.Counter("rpc.calls", "peer", peer)                    // want metriclabel
	reg.Gauge("shard.lag", "shard", strconv.Itoa(shard))      // want metriclabel
	derived := peer + ":suffix"
	reg.Histogram("rpc.latency", "endpoint", derived)         // want metriclabel
	reg.AddCounter(new(int64), "rpc.retries", "peer", peer)   // want metriclabel
}

// registerStages exercises the Stage/SLO constructors: constant names are
// the disciplined shape, request-derived names leak unbounded families.
func registerStages(reg *Registry, endpoint string, shard int) {
	reg.Stage("serving.khop_assembly")
	reg.Stage("serving.queue_wait", "worker", "0")
	reg.SLO("frontend.sample_latency", 250, 99, 60)
	reg.Stage(endpoint)                          // want metriclabel
	reg.Stage("mq.append", "shard", strconv.Itoa(shard)) // want metriclabel
	reg.SLO(endpoint+".latency", 250, 99, 60)    // want metriclabel
}

// registerComputedKey uses a non-constant label key.
func registerComputedKey(reg *Registry, which string) {
	reg.Counter("cache.hits", which, "serve") // want metriclabel
}

// registerOdd passes a dangling key with no value.
func registerOdd(reg *Registry) {
	reg.Counter("cache.misses", "stage") // want metriclabel
}

// Config carries deployment configuration; its fields are bounded sets by
// construction.
type Config struct {
	Worker string
	Shards int
}

// registerFromConfig draws label values from a struct-typed parameter,
// which is configuration, not request data.
func registerFromConfig(reg *Registry, cfg Config) {
	reg.Counter("worker.applied", "worker", cfg.Worker)
	for i := 0; i < cfg.Shards; i++ {
		reg.Gauge("shard.size", "shard", strconv.Itoa(i))
	}
}

// registerForwarded forwards an inherited label slice verbatim; its
// contents are checked where the slice was built.
func registerForwarded(reg *Registry, labels ...string) {
	reg.Counter("kv.puts", labels...)
}

type component struct {
	id  string
	reg *Registry
}

// register draws the label from the receiver: the component identity is
// fixed at construction, not per request.
func (c *component) register() {
	c.reg.Counter("component.events", "component", c.id)
}

// registerAllowed is the suppressed case.
func registerAllowed(reg *Registry, tenant string) {
	//lint:allow metriclabel reason=fixture: tenant count is contractually bounded to single digits
	reg.Counter("tenant.requests", "tenant", tenant)
}
