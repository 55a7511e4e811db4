package monitor

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/obs"
)

// TestConcurrentScrapesUnderChurn hammers every ops surface — /metrics
// (text and JSON), /traces, /slo and /cluster — while workers register,
// report new partitions and die (racing the Tick death scan). Run under
// -race this is the lock-order acceptance test for the registry↔collector
// interaction: the worker-count gauges (cluster.workers, stale_workers,
// dead_workers) run under the registry lock and take the collector lock,
// so a scrape races every snapshot, Tick and View here, and any
// registration under the collector lock would deadlock.
func TestConcurrentScrapesUnderChurn(t *testing.T) {
	baseline := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(32, 4)
	clk := clock.NewFake()
	collector := NewCollector(CollectorConfig{
		Clock:    clk,
		Interval: time.Second,
		Registry: reg,
	})
	reg.SLO("frontend.sample_latency", time.Millisecond, 0.99, time.Minute).Observe(time.Microsecond)
	reg.Stage("serving.khop_assembly").Observe(1000, 0)

	ops := httptest.NewServer(obs.Handler(reg, tracer,
		obs.Route{Pattern: "GET /cluster", Handler: collector.Handler()}))
	defer ops.Close()

	paths := []string{"/metrics", "/metrics?format=json", "/traces", "/slo", "/cluster"}
	const scrapers, scrapes = 4, 50

	var wg sync.WaitGroup
	errc := make(chan error, scrapers*len(paths)+2)

	// Scrapers: every surface, continuously.
	for s := 0; s < scrapers; s++ {
		for _, p := range paths {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				for i := 0; i < scrapes; i++ {
					resp, err := http.Get(ops.URL + path)
					if err != nil {
						errc <- err
						return
					}
					_, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("GET %s = %d", path, resp.StatusCode)
						return
					}
				}
			}(p)
		}
	}

	// Churn: workers appear with fresh partitions, report, and go silent;
	// the clock races past the dead threshold while Tick scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 40; round++ {
			name := fmt.Sprintf("server-%d", round%8)
			collector.OnSnapshot(&WorkerSnapshot{
				Name: name, Kind: "server", Version: "test",
				Seq: uint64(round + 1), StartNS: 1,
				NowNS: int64(round) * int64(time.Second),
				Partitions: []PartitionStats{
					{Partition: round % 8, Served: int64(100 * round)},
					{Partition: 8 + round%4, Served: int64(10 * round)},
				},
				SLOs: []SLOBurn{{Name: "frontend.sample_latency", BurnRateMilli: int64(round)}},
			})
			clk.Advance(500 * time.Millisecond)
			collector.Tick()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = collector.View()
			_ = reg.Snapshot()
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Everything above is synchronous or joined; any goroutine still
	// running would be a leak in the scrape or collector paths. Allow the
	// HTTP server's idle connections a moment to wind down.
	ops.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
