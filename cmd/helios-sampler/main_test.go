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

// TestDefaultFlagsMatchBoot starts a sampling worker from this binary's
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

	f := declare(flag.NewFlagSet("helios-sampler", flag.ContinueOnError))
	role, err := cluster.StartSampler(cfg, c.Broker, f.options())
	if err != nil {
		t.Fatal(err)
	}
	defer role.Close()

	got, want := role.Worker.Config(), c.Samplers[0].Config()
	// Process wiring, not knobs: the binary exports on the process registry.
	got.Metrics, want.Metrics = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default flags run the worker with\n%+v\nBoot with zero options runs it with\n%+v", got, want)
	}
}
