package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/obs"
)

// testCollector builds a fake-clock collector with a 1s interval (stale
// at 3s, dead at 9s, capture cooldown 10s) and a flight ring in a temp
// dir.
func testCollector(t *testing.T, reg *obs.Registry) (*Collector, *clock.Fake, *FlightRecorder) {
	t.Helper()
	clk := clock.NewFake()
	fr, err := NewFlightRecorder(t.TempDir(), 8, clk)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(CollectorConfig{
		Clock:    clk,
		Interval: time.Second,
		Registry: reg,
		Recorder: fr,
	})
	return c, clk, fr
}

// workerSnap builds one serving-worker snapshot: cumulative served
// counters per partition, stamped at the given worker-clock second.
func workerSnap(name string, seq uint64, atSec int64, parts map[int]int64) *WorkerSnapshot {
	s := &WorkerSnapshot{
		Name: name, Kind: "server", Version: "test",
		Seq: seq, StartNS: 1, NowNS: atSec * int64(time.Second),
	}
	for p := 0; p < 64; p++ {
		if served, ok := parts[p]; ok {
			s.Partitions = append(s.Partitions, PartitionStats{Partition: p, Served: served})
		}
	}
	return s
}

func TestCollectorPartitionRatesAndWorkerGauges(t *testing.T) {
	reg := obs.NewRegistry()
	c, _, _ := testCollector(t, reg)

	// Partition 0 serves 100/s, partition 1 serves 300/s.
	for round := int64(0); round < 5; round++ {
		c.OnSnapshot(workerSnap("server-0", uint64(round+1), round, map[int]int64{0: 100 * round}))
		c.OnSnapshot(workerSnap("server-1", uint64(round+1), round, map[int]int64{1: 300 * round}))
	}

	v := c.View()
	if len(v.Workers) != 2 || len(v.Partitions) != 2 {
		t.Fatalf("view has %d workers, %d partitions", len(v.Workers), len(v.Partitions))
	}
	p0, p1 := v.Partitions[0], v.Partitions[1]
	if p0.Partition != 0 || p1.Partition != 1 {
		t.Fatalf("partition order: %+v", v.Partitions)
	}
	if p0.Worker != "server-0" || p1.Worker != "server-1" {
		t.Fatalf("partition owners: %q %q", p0.Worker, p1.Worker)
	}
	if p0.RateMilli != 100_000 || p1.RateMilli != 300_000 {
		t.Fatalf("rates = %d, %d milli-QPS; want 100000, 300000", p0.RateMilli, p1.RateMilli)
	}
	// The worker counts export as gauges for the scrape surface.
	g := reg.Snapshot().Gauges
	if g["cluster.workers"] != 2 || g["cluster.stale_workers"] != 0 || g["cluster.dead_workers"] != 0 {
		t.Fatalf("worker gauges = %d/%d/%d", g["cluster.workers"], g["cluster.stale_workers"], g["cluster.dead_workers"])
	}
}

func TestCollectorStaleDeadAndReadmission(t *testing.T) {
	reg := obs.NewRegistry()
	c, clk, fr := testCollector(t, reg)

	c.OnSnapshot(workerSnap("server-0", 1, 0, map[int]int64{0: 10}))
	c.OnSnapshot(workerSnap("server-1", 1, 0, map[int]int64{1: 10}))

	// Fresh: neither stale nor dead.
	if v := c.View(); v.Workers[0].Stale || v.Workers[0].Dead {
		t.Fatalf("fresh worker flagged: %+v", v.Workers[0])
	}

	// server-1 goes silent; server-0 keeps reporting.
	for round := int64(1); round <= 4; round++ {
		clk.Advance(time.Second)
		c.OnSnapshot(workerSnap("server-0", uint64(round+1), round, map[int]int64{0: 10}))
	}
	v := c.View()
	if v.Workers[0].Stale {
		t.Fatalf("live worker flagged stale: %+v", v.Workers[0])
	}
	if !v.Workers[1].Stale || v.Workers[1].Dead {
		t.Fatalf("silent worker after 4s: %+v (want stale, not dead)", v.Workers[1])
	}
	// The partition row mirrors the owner's staleness.
	if !v.Partitions[1].Stale || v.Partitions[0].Stale {
		t.Fatalf("partition staleness: %+v", v.Partitions)
	}
	g := reg.Snapshot().Gauges
	if g["cluster.stale_workers"] != 1 || g["cluster.dead_workers"] != 0 {
		t.Fatalf("gauges after 4s silence: stale=%d dead=%d", g["cluster.stale_workers"], g["cluster.dead_workers"])
	}

	// Past nine intervals (9s): dead in the view even before the next Tick.
	// server-0 keeps reporting so only the silent worker is flagged.
	for round := int64(5); round <= 10; round++ {
		clk.Advance(time.Second)
		c.OnSnapshot(workerSnap("server-0", uint64(round+1), round, map[int]int64{0: 10}))
	}
	if v := c.View(); !v.Workers[1].Dead {
		t.Fatalf("silent worker after 10s not dead: %+v", v.Workers[1])
	}
	if g := reg.Snapshot().Gauges; g["cluster.dead_workers"] != 1 || g["cluster.stale_workers"] != 0 {
		t.Fatalf("gauges after death: stale=%d dead=%d", g["cluster.stale_workers"], g["cluster.dead_workers"])
	}

	// Tick records the death capture exactly once.
	c.Tick()
	c.Tick()
	paths, err := fr.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%d death captures, want 1: %v", len(paths), paths)
	}
	doc, err := ReadCapture(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if doc.Reason != "worker_death" || doc.Worker != "server-1" {
		t.Fatalf("death capture = reason %q worker %q", doc.Reason, doc.Worker)
	}
	if got := reg.Snapshot().Counters[obs.Name("cluster.captures", "reason", "worker_death")]; got != 1 {
		t.Fatalf("cluster.captures{reason=worker_death} = %d, want 1", got)
	}

	// The worker resumes: re-admitted, flags drop, gauge decrements.
	c.OnSnapshot(workerSnap("server-1", 2, 10, map[int]int64{1: 20}))
	v = c.View()
	if v.Workers[1].Stale || v.Workers[1].Dead {
		t.Fatalf("re-admitted worker still flagged: %+v", v.Workers[1])
	}
	if v.Partitions[1].Stale {
		t.Fatalf("re-admitted worker's partition still stale: %+v", v.Partitions[1])
	}
	if g := reg.Snapshot().Gauges; g["cluster.dead_workers"] != 0 || g["cluster.workers"] != 2 {
		t.Fatalf("gauges after re-admission: workers=%d dead=%d", g["cluster.workers"], g["cluster.dead_workers"])
	}
}

func TestCollectorSLOBurnCaptureAndCooldown(t *testing.T) {
	reg := obs.NewRegistry()
	c, clk, fr := testCollector(t, reg)

	burning := func(seq uint64, atSec int64) *WorkerSnapshot {
		s := workerSnap("frontend-0", seq, atSec, nil)
		s.Kind = "frontend"
		s.SLOs = []SLOBurn{{Name: "frontend.sample_latency", BurnRateMilli: 90_000, Bad: 9, Good: 1}}
		s.Worst = []TraceSummary{{ID: 0xabc, Op: "sample", TotalNS: 50_000_000, WorstStage: "serving.khop_assembly", WorstStageNS: 40_000_000}}
		s.SlowLines = []string{`{"msg":"slow sample"}`}
		return s
	}
	// Partition state so the capture can name the busiest partition.
	for round := int64(0); round < 3; round++ {
		c.OnSnapshot(workerSnap("server-0", uint64(round+1), round, map[int]int64{0: 10 * round, 2: 90 * round}))
	}

	c.OnSnapshot(burning(1, 3))
	paths, err := fr.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%d captures after burn, want 1", len(paths))
	}
	doc, err := ReadCapture(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if doc.Reason != "slo_burn" || doc.Worker != "frontend-0" || doc.SLO != "frontend.sample_latency" {
		t.Fatalf("burn capture = %+v", doc)
	}
	if doc.BurnRateMilli != 90_000 {
		t.Fatalf("capture burn = %d", doc.BurnRateMilli)
	}
	if doc.Partition != 2 {
		t.Fatalf("capture partition = %d, want the highest rate (2)", doc.Partition)
	}
	if doc.WorstTrace.ID != 0xabc || doc.WorstTrace.WorstStage != "serving.khop_assembly" {
		t.Fatalf("capture worst trace = %+v", doc.WorstTrace)
	}
	if len(doc.SlowLines) != 1 {
		t.Fatalf("capture slow lines = %v", doc.SlowLines)
	}
	if len(doc.View.Workers) == 0 || len(doc.View.Partitions) != 2 {
		t.Fatalf("capture view: %d workers %d partitions", len(doc.View.Workers), len(doc.View.Partitions))
	}

	// A sustained burn within the cooldown yields no second capture...
	clk.Advance(2 * time.Second)
	c.OnSnapshot(burning(2, 5))
	if paths, _ = fr.List(); len(paths) != 1 {
		t.Fatalf("%d captures inside cooldown, want 1", len(paths))
	}
	// ...but one past the cooldown does.
	clk.Advance(10 * time.Second)
	c.OnSnapshot(burning(3, 15))
	if paths, _ = fr.List(); len(paths) != 2 {
		t.Fatalf("%d captures past cooldown, want 2", len(paths))
	}
}

// A worker restart resets its counters; the collector must skip one rate
// sample instead of deriving a huge negative rate.
func TestCollectorRestartResetsBaseline(t *testing.T) {
	c, _, _ := testCollector(t, obs.NewRegistry())

	for round := int64(0); round < 4; round++ {
		c.OnSnapshot(workerSnap("server-0", uint64(round+1), round, map[int]int64{0: 1000 * round}))
	}
	before := c.View().Partitions[0]
	if before.RateMilli != 1_000_000 {
		t.Fatalf("pre-restart rate = %d", before.RateMilli)
	}

	// Restart: seq resets to 1, counters to zero (fresh StartNS).
	s := workerSnap("server-0", 1, 0, map[int]int64{0: 0})
	s.StartNS = 2
	c.OnSnapshot(s)
	after := c.View().Partitions[0]
	if after.RateMilli != before.RateMilli {
		t.Fatalf("restart perturbed the rate: before %+v after %+v", before, after)
	}

	// The first post-restart delta resumes rate tracking.
	s2 := workerSnap("server-0", 2, 1, map[int]int64{0: 500})
	s2.StartNS = 2
	c.OnSnapshot(s2)
	if got := c.View().Partitions[0].RateMilli; got != 500_000 {
		t.Fatalf("post-restart rate = %d, want 500000", got)
	}
}

func TestCollectorHandlerServesJSON(t *testing.T) {
	c, _, _ := testCollector(t, obs.NewRegistry())
	c.OnSnapshot(workerSnap("server-0", 1, 0, map[int]int64{0: 10}))

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/cluster", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /cluster = %d", rec.Code)
	}
	var v ClusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode /cluster: %v\n%s", err, rec.Body.String())
	}
	if len(v.Workers) != 1 || v.Workers[0].Name != "server-0" || len(v.Partitions) != 1 {
		t.Fatalf("/cluster = %+v", v)
	}
}

// Stage rollups aggregate across workers: max p99 names the worst
// worker, counts sum.
func TestCollectorStageRollup(t *testing.T) {
	c, _, _ := testCollector(t, obs.NewRegistry())
	s0 := workerSnap("server-0", 1, 0, nil)
	s0.Stages = []StageP99{{Stage: "serving.khop_assembly", Count: 10, P50NS: 100, P99NS: 1000}}
	s1 := workerSnap("server-1", 1, 0, nil)
	s1.Stages = []StageP99{{Stage: "serving.khop_assembly", Count: 30, P50NS: 100, P99NS: 5000}}
	c.OnSnapshot(s0)
	c.OnSnapshot(s1)

	v := c.View()
	if len(v.Stages) != 1 {
		t.Fatalf("stages = %+v", v.Stages)
	}
	st := v.Stages[0]
	if st.Stage != "serving.khop_assembly" || st.Count != 40 {
		t.Fatalf("rollup = %+v", st)
	}
	if st.WorstWorker != "server-1" || st.MaxP99NS != 5000 || st.MeanP99NS != 3000 {
		t.Fatalf("rollup attribution = %+v", st)
	}
}
