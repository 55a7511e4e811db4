package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"helios/internal/clock"
)

func TestSLOBurnRate(t *testing.T) {
	clk := clock.NewFake()
	s := NewSLO("serve", 100*time.Millisecond, 0.9, time.Minute).WithClock(clk)
	// 9 good + 1 bad at a 0.9 objective burns the budget exactly: burn 1.0.
	for i := 0; i < 9; i++ {
		s.Observe(10 * time.Millisecond)
	}
	s.Observe(time.Second)
	snap := s.Snapshot()
	if snap.Good != 9 || snap.Bad != 1 || snap.Total != 10 {
		t.Fatalf("counts = %+v", snap)
	}
	if snap.BurnRate < 0.999 || snap.BurnRate > 1.001 {
		t.Fatalf("burn rate = %g, want 1.0", snap.BurnRate)
	}
	if snap.Healthy {
		t.Fatal("burn 1.0 must not report healthy")
	}
	// A boundary sample (== Target) counts good.
	s.Observe(100 * time.Millisecond)
	if got := s.Snapshot(); got.Good != 10 {
		t.Fatalf("boundary sample counted bad: %+v", got)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clk := clock.NewFake()
	s := NewSLO("serve", 100*time.Millisecond, 0.99, time.Minute).WithClock(clk)
	s.Observe(time.Second) // bad
	if snap := s.Snapshot(); snap.Bad != 1 {
		t.Fatalf("bad not counted: %+v", snap)
	}
	// Advance past the trailing window: the old slot must age out.
	clk.Advance(2 * time.Minute)
	if snap := s.Snapshot(); snap.Total != 0 {
		t.Fatalf("stale slots survived the window: %+v", snap)
	}
	// New observations land in fresh slots (epoch-tagged reuse).
	s.Observe(10 * time.Millisecond)
	if snap := s.Snapshot(); snap.Good != 1 || snap.Bad != 0 {
		t.Fatalf("post-expiry counts = %+v", snap)
	}
}

func TestRegistrySLOGaugesAndEndpoint(t *testing.T) {
	reg := NewRegistry()
	clk := clock.NewFake()
	s := reg.SLO("frontend.sample_latency", 100*time.Millisecond, 0.9, time.Minute)
	s.WithClock(clk)
	if reg.SLO("frontend.sample_latency", time.Hour, 0.5, time.Hour) != s {
		t.Fatal("SLO not get-or-create by name")
	}
	// Route observations through a stage histogram with the SLO attached:
	// one Observe feeds both surfaces.
	h := reg.Stage("frontend.request").WithClock(clk)
	h.AttachSLO(s)
	h.Observe((10 * time.Millisecond).Nanoseconds(), 0)
	h.Observe(time.Second.Nanoseconds(), 42)

	snap := reg.Snapshot()
	slo, ok := snap.SLOs["frontend.sample_latency"]
	if !ok || slo.Good != 1 || slo.Bad != 1 {
		t.Fatalf("snapshot SLO = %+v (ok=%v)", slo, ok)
	}
	// Burn state folds into plain gauges for text scrapers.
	name := Name("slo.burn_rate_milli", "slo", "frontend.sample_latency")
	if snap.Gauges[name] != 5000 { // bad fraction 0.5 / budget 0.1 = burn 5.0
		t.Fatalf("burn gauge = %d, want 5000 (gauges: %v)", snap.Gauges[name], snap.Gauges)
	}

	// /slo serves the same document over HTTP.
	srv, err := Serve("127.0.0.1:0", reg, NewTracer(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		SLOs map[string]SLOSnapshot `json:"slos"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/slo not JSON: %v\n%s", err, body)
	}
	got := out.SLOs["frontend.sample_latency"]
	if got.Total != 2 || got.BurnRate < 4.999 || got.BurnRate > 5.001 {
		t.Fatalf("/slo = %+v", got)
	}
}
