package monitor

import (
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/obs"
	"helios/internal/rpc"
)

// TestTelemetryOverRPC runs the real federation path: a Reporter
// assembles a snapshot from a live registry/tracer, a Client ships it
// over coord.telemetry to an rpc.Server, and the Collector's view
// reflects it.
func TestTelemetryOverRPC(t *testing.T) {
	collector := NewCollector(CollectorConfig{Clock: clock.NewFake(), Interval: time.Second})
	srv := rpc.NewServer()
	ServeRPC(collector, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Worker-side state: one stage histogram, one burning SLO, one slow
	// trace, a log tail.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16, 4)
	reg.Stage("serving.khop_assembly").Observe(5_000_000, 0)
	slo := reg.SLO("frontend.sample_latency", time.Millisecond, 0.5, time.Minute)
	slo.Observe(10 * time.Millisecond) // bad: burn = 1/0.5 = 2.0
	id := tracer.NewID()
	tracer.Record(obs.Trace{ID: id, Op: "sample", Total: 7_000_000, Spans: []obs.Span{
		{Name: "serving.khop_assembly", Dur: 6_000_000},
		{Name: "serving.encode", Dur: 1_000_000},
	}})

	served := int64(42)
	reporter := NewReporter(ReporterConfig{
		Name: "server-0", Kind: "server",
		Registry: reg,
		Tracer:   tracer,
		LogTail:  func() []string { return []string{`{"msg":"slow serve"}`} },
		Partitions: func() []PartitionStats {
			return []PartitionStats{{Partition: 0, Served: served, SampleHits: 9, SampleMisses: 1}}
		},
		Sink: NewClient(cli, 0),
	})
	if err := reporter.ReportOnce(); err != nil {
		t.Fatal(err)
	}
	served = 142
	if err := reporter.ReportOnce(); err != nil {
		t.Fatal(err)
	}

	v := collector.View()
	if len(v.Workers) != 1 || v.Workers[0].Name != "server-0" || v.Workers[0].Seq != 2 {
		t.Fatalf("workers = %+v", v.Workers)
	}
	w := v.Workers[0]
	if len(w.SLOs) != 1 || w.SLOs[0].Name != "frontend.sample_latency" || w.SLOs[0].BurnRateMilli < 1900 {
		t.Fatalf("SLO burn did not federate: %+v", w.SLOs)
	}
	if w.WorstTrace.ID != id || w.WorstTrace.WorstStage != "serving.khop_assembly" {
		t.Fatalf("worst trace did not federate: %+v (want id %x)", w.WorstTrace, id)
	}
	if len(v.Partitions) != 1 || v.Partitions[0].HitRateMilli != 900 {
		t.Fatalf("partitions = %+v", v.Partitions)
	}
	found := false
	for _, st := range v.Stages {
		if st.Stage == "serving.khop_assembly" && st.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stage rollup did not federate: %+v", v.Stages)
	}
}

// A corrupt frame must be rejected server-side without wedging the
// connection for subsequent valid reports.
func TestTelemetryRPCRejectsCorruptFrame(t *testing.T) {
	collector := NewCollector(CollectorConfig{Clock: clock.NewFake(), Interval: time.Second})
	srv := rpc.NewServer()
	ServeRPC(collector, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Call(MethodTelemetry, []byte{0xff, 0x01, 0x02}, time.Second); err == nil {
		t.Fatal("corrupt telemetry frame accepted")
	}
	if err := NewClient(cli, 0).Report(&WorkerSnapshot{Name: "w", Kind: "server", Seq: 1}); err != nil {
		t.Fatalf("valid report after corrupt frame: %v", err)
	}
	if v := collector.View(); len(v.Workers) != 1 {
		t.Fatalf("valid report not applied: %+v", v.Workers)
	}
}
