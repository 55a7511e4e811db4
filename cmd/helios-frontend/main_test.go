package main

import (
	"flag"
	"reflect"
	"testing"

	"helios/internal/cluster"
)

// TestDefaultFlagsMatchBoot requires this binary's default flag set to
// resolve to the frontend options cluster.Boot passes under zero Options —
// the zero value plus addresses — so a flag default that drifts from what
// the example and the tests run fails here instead of going unnoticed.
func TestDefaultFlagsMatchBoot(t *testing.T) {
	got := declare(flag.NewFlagSet("helios-frontend", flag.ContinueOnError)).options()
	// Where this process listens, reports and exports is deployment wiring.
	got.Listen, got.Servers = "", nil
	got.Registry, got.Tracer, got.TelemetryEvery = nil, nil, 0
	if want := (cluster.FrontendOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("default flags resolve to\n%+v\nBoot with zero options passes\n%+v", got, want)
	}
}
