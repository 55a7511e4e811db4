package main

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"helios/internal/cluster"
	"helios/internal/deploy"
)

const testConfig = `{
  "samplers": 1,
  "servers": 1,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [{"name": "Click", "src": "User", "dst": "Item"}],
  "queries": ["g.V('User').outV('Click').sample(2).by('TopK')"],
  "overload": {"maxInflight": 3, "maxQueue": 5, "degrade": true}
}`

// TestDefaultFlagsMatchBoot starts a serving worker from this binary's
// default flag set and requires its filled configuration to equal the one
// cluster.Boot gives a worker under zero Options — so a flag default that
// drifts from what the example, the embedded Service and the tests run
// fails here instead of going unnoticed. The admission bounds have no flag:
// both workers must take them from the config's overload block.
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
	if got.MaxInflight != 3 || got.MaxAdmitQueue != 5 || !got.Degrade {
		t.Fatalf("the config's overload block did not reach the worker: %+v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default flags run the worker with\n%+v\nBoot with zero options runs it with\n%+v", got, want)
	}
}

// TestFlagCensus pins this binary's flag names to testdata/flags.txt, so the
// flag count only moves on purpose: an added or removed flag fails until the
// golden changes in the same diff.
func TestFlagCensus(t *testing.T) {
	fs := flag.NewFlagSet("helios-server", flag.ContinueOnError)
	declare(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { got.WriteString(f.Name + "\n") })
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flags differ from testdata/flags.txt:\n%s\nwant:\n%s", got.String(), want)
	}
}
