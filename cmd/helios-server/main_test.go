package main

import (
	"flag"
	"reflect"
	"testing"

	"helios/internal/cluster"
	"helios/internal/deploy"
)

const testConfig = `{
  "samplers": 1,
  "servers": 1,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [{"name": "Click", "src": "User", "dst": "Item"}],
  "queries": ["g.V('User').outV('Click').sample(2).by('TopK')"]
}`

// TestDefaultFlagsMatchBoot starts a serving worker from this binary's
// default flag set and requires its filled configuration to equal the one
// cluster.Boot gives a worker under zero Options — so a flag default that
// drifts from what the example, the embedded Service and the tests run
// fails here instead of going unnoticed.
func TestDefaultFlagsMatchBoot(t *testing.T) {
	cfg, err := deploy.Parse([]byte(testConfig))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Boot(cfg, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := declare(flag.NewFlagSet("helios-server", flag.ContinueOnError))
	o := f.options()
	o.StatsEvery = 0 // a log line, not worker configuration
	role, err := cluster.StartServer(cfg, c.Broker, o)
	if err != nil {
		t.Fatal(err)
	}
	defer role.Close()

	got, want := role.Worker.Config(), c.Servers[0].Config()
	// Process wiring, not knobs: the binary exports on the process registry
	// and tracer, and its slow-serve threshold only matters to the logger
	// it alone has.
	got.Metrics, want.Metrics = nil, nil
	got.Tracer, want.Tracer = nil, nil
	got.SlowLog = want.SlowLog
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default flags run the worker with\n%+v\nBoot with zero options runs it with\n%+v", got, want)
	}
}
