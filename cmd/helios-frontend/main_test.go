package main

import (
	"flag"
	"os"
	"reflect"
	"strings"
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

// TestFlagCensus pins this binary's flag names to testdata/flags.txt, so the
// flag count only moves on purpose: an added or removed flag fails until the
// golden changes in the same diff.
func TestFlagCensus(t *testing.T) {
	fs := flag.NewFlagSet("helios-frontend", flag.ContinueOnError)
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
