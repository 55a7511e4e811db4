package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNameCanonicalizesLabels(t *testing.T) {
	a := Name("mq.consumer_lag", "topic", "samples", "partition", "2")
	b := Name("mq.consumer_lag", "partition", "2", "topic", "samples")
	if a != b {
		t.Fatalf("label order changed the name: %q vs %q", a, b)
	}
	if a != "mq.consumer_lag{partition=2,topic=samples}" {
		t.Fatalf("unexpected canonical name %q", a)
	}
	if got := Name("plain"); got != "plain" {
		t.Fatalf("no-label name mangled: %q", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("served", "worker", "0")
	c2 := r.Counter("served", "worker", "0")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("counter handles not shared")
	}
	if r.Counter("served", "worker", "1") == c1 {
		t.Fatal("different labels shared a counter")
	}

	g := r.Gauge("staleness")
	g.Set(42)
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7 (last write wins)", g.Value())
	}

	h := r.Histogram("lat")
	h.Observe(1000, 0)
	if r.Histogram("lat").Count() != 1 {
		t.Fatal("histogram handles not shared")
	}
}

func TestSnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Gauge("lag").Set(5)
	r.Histogram("lat").Observe(2000, 0)
	r.GaugeFunc("cache_bytes", func() int64 { return 99 })
	r.CounterFunc("external", func() int64 { return 12 })

	s := r.Snapshot()
	if s.Counters["hits"] != 3 || s.Counters["external"] != 12 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["lag"] != 5 || s.Gauges["cache_bytes"] != 99 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["lat"].Count != 1 {
		t.Fatalf("histograms = %v", s.Histograms)
	}

	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{"hits 3", "lag 5", "cache_bytes 99", "lat_count 1", "lat_p99 "} {
		if !strings.Contains(text, want) {
			t.Fatalf("text output missing %q:\n%s", want, text)
		}
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters["hits"] != 3 {
		t.Fatalf("JSON round trip lost counters: %v", round.Counters)
	}
}

func TestTracerIDsUniqueAndNonzero(t *testing.T) {
	tr := NewTracer(8, 4)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := tr.NewID()
		if id == 0 {
			t.Fatal("zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %d", id)
		}
		seen[id] = true
	}
}

func TestTracerRingAndWorstN(t *testing.T) {
	tr := NewTracer(4, 2)
	for i := 1; i <= 10; i++ {
		tr.Record(Trace{ID: uint64(i), Op: "sample", Total: int64(i * 100)})
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(recent))
	}
	if recent[0].ID != 7 || recent[3].ID != 10 {
		t.Fatalf("ring order wrong: first=%d last=%d", recent[0].ID, recent[3].ID)
	}
	worst := tr.Slowest()
	if len(worst) != 2 || worst[0].ID != 10 || worst[1].ID != 9 {
		t.Fatalf("worst-N wrong: %+v", worst)
	}
	// A fast trace must not displace the slow capture.
	tr.Record(Trace{ID: 11, Total: 1})
	if w := tr.Slowest(); w[0].ID != 10 || w[1].ID != 9 {
		t.Fatalf("fast trace displaced worst-N: %+v", w)
	}
	// But a new slowest goes to the front.
	tr.Record(Trace{ID: 12, Total: 5000})
	if w := tr.Slowest(); w[0].ID != 12 {
		t.Fatalf("slowest not captured: %+v", w)
	}
}

func TestTracerFind(t *testing.T) {
	tr := NewTracer(4, 2)
	tr.Record(Trace{ID: 1, Total: 10, Spans: []Span{{Name: "a", Dur: 4}, {Name: "b", Dur: 5}}})
	got, ok := tr.Find(1)
	if !ok || got.SpanSum() != 9 {
		t.Fatalf("Find(1) = %+v, %v", got, ok)
	}
	// Evict ID 1 from the ring; it survives only if among the worst.
	for i := 2; i <= 6; i++ {
		tr.Record(Trace{ID: uint64(i), Total: int64(i)})
	}
	if _, ok := tr.Find(1); !ok {
		t.Fatal("slow trace lost after ring eviction (worst-N should retain it)")
	}
	if _, ok := tr.Find(999); ok {
		t.Fatal("found a trace that was never recorded")
	}
}

func TestOpsEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serving.sample_hits").Add(5)
	tracer := NewTracer(4, 2)
	tracer.Record(Trace{ID: 7, Op: "sample", Total: 1234, Spans: []Span{{Name: "serving.queue_wait", Dur: 200}}})

	srv, err := Serve("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if text := get("/metrics"); !strings.Contains(text, "serving.sample_hits 5") {
		t.Fatalf("/metrics missing counter:\n%s", text)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics?format=json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serving.sample_hits"] != 5 {
		t.Fatalf("/metrics json = %v", snap.Counters)
	}

	var traces struct {
		Slowest []Trace `json:"slowest"`
		Recent  []Trace `json:"recent"`
	}
	if err := json.Unmarshal([]byte(get("/traces")), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Slowest) != 1 || traces.Slowest[0].ID != 7 || traces.Slowest[0].Spans[0].Name != "serving.queue_wait" {
		t.Fatalf("/traces = %+v", traces)
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// A component's own counter is published by pointing the registry at it;
// Sum totals a labelled family at read time; and a scrape function may
// itself consult the registry, because Snapshot runs functions outside its
// lock — how overload.shed's unlabelled total is computed.
func TestAddCounterSumAndReentrantScrape(t *testing.T) {
	r := NewRegistry()
	var owned Counter
	r.AddCounter(&owned, "frontend.failovers")
	owned.Add(3)
	r.Counter("overload.shed", "stage", "a", "reason", "queue_full").Add(2)
	r.Counter("overload.shed", "stage", "b", "reason", "budget").Add(5)
	r.Counter("overload.shedding").Add(100) // shares a prefix, not the family
	r.CounterFunc("overload.shed", func() int64 { return r.Sum("overload.shed") })

	if got := r.Sum("overload.shed"); got != 7 {
		t.Fatalf("Sum = %d, want 7", got)
	}
	done := make(chan Snapshot, 1)
	go func() { done <- r.Snapshot() }()
	select {
	case s := <-done:
		if s.Counters["overload.shed"] != 7 || s.Counters["frontend.failovers"] != 3 {
			t.Fatalf("counters = %v", s.Counters)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot deadlocked on a scrape function that reads the registry")
	}
}
