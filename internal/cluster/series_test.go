package cluster

import (
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/coord"
	"helios/internal/graph"
	"helios/internal/monitor"
	"helios/internal/obs"
	"helios/internal/query"
)

// Every exported series names its reader. The test boots the cmd/ topology
// with one registry behind every role, drives one update and one query
// through it, and compares the series that exist — by base name, each
// stage of the stage.latency_ns family on its own — with testdata/series.txt
// (one `name<TAB>reader` per line, the table DESIGN.md prints). A series
// added without a reader line fails here, in the PR that adds it; so does a
// line whose series is gone.
func TestEverySeriesNamesItsReader(t *testing.T) {
	g := newTestGraph()
	cfg, err := deployFor(localConfig{
		Samplers: 1, Servers: 1,
		Schema:  g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, clk := obs.NewRegistry(), clock.NewFake()
	rec, err := monitor.NewFlightRecorder(t.TempDir(), 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Brokers: 1}
	o.Broker.Registry = reg
	o.Broker.Collector = monitor.CollectorConfig{Clock: clk, Interval: time.Second, Registry: reg, Recorder: rec}
	o.Sampler.Worker.Metrics, o.Server.Worker.Metrics, o.Frontend.Registry = reg, reg, reg
	c, err := Boot(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// What a binary's registry carries beyond its role: cluster.Setup's
	// build identity, and on broker 0 of a replica set the failover
	// controller's two series.
	obs.RegisterBuildInfo(reg, "helios-test", nil)
	coord.NewFailover(coord.FailoverConfig{Coordinator: coord.New(), Peers: 3}).RegisterMetrics(reg)

	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(1), Dst: itemID(1), Type: g.click, Ts: 1}))
	if err := c.WaitQuiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sample(0, userID(1)); err != nil {
		t.Fatal(err)
	}
	// One telemetry round brings the partition table; ten silent intervals
	// later every worker is dead, which is a flight capture.
	for _, r := range []*monitor.Reporter{c.SamplerRoles[0].Reporter, c.ServerRoles[0].Reporter, c.Frontend.Reporter} {
		if err := r.ReportOnce(); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Second)
	c.Brokers[0].Collector.Tick()

	snap := reg.Snapshot()
	seen := make(map[string]bool)
	see := func(name string) {
		base, labels := obs.ParseName(name)
		if base == obs.StageMetric {
			base = obs.Name(base, "stage", labels["stage"])
		}
		seen[base] = true
	}
	for name := range snap.Counters {
		see(name)
	}
	for name := range snap.Gauges {
		see(name)
	}
	for name := range snap.Histograms {
		see(name)
	}
	for name := range snap.Stages {
		see(name)
	}

	table, err := os.ReadFile("testdata/series.txt")
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for i, line := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		name, reader, ok := strings.Cut(line, "\t")
		if !ok || name == "" || strings.TrimSpace(reader) == "" {
			t.Fatalf("testdata/series.txt:%d: want `name<TAB>reader`, have %q", i+1, line)
		}
		if listed[name] {
			t.Fatalf("testdata/series.txt:%d: %s listed twice", i+1, name)
		}
		listed[name] = true
	}
	var unread, gone []string
	for name := range seen {
		if !listed[name] {
			unread = append(unread, name)
		}
	}
	for name := range listed {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(unread)
	sort.Strings(gone)
	if len(unread) > 0 {
		t.Errorf("series exported with no reader line in testdata/series.txt (name who reads it, or delete the series):\n  %s",
			strings.Join(unread, "\n  "))
	}
	if len(gone) > 0 {
		t.Errorf("testdata/series.txt lists series nothing exports any more:\n  %s", strings.Join(gone, "\n  "))
	}
}
