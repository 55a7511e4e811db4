// Command helios-replay streams a recorded update file (produced by
// helios-datagen) into a running deployment's broker, optionally
// rate-limited — the replay methodology of §7.1 ("we replay the four
// datasets to simulate continuously arriving dynamic graph updates").
//
// Usage:
//
//	helios-replay -config cluster.json -broker 127.0.0.1:7070 \
//	    -in taobao.stream -rate 100000
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"helios/internal/clock"
	"helios/internal/deploy"
	"helios/internal/frontend"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/streamfile"
	"helios/internal/wire"
)

func main() {
	configPath := flag.String("config", "cluster.json", "shared cluster configuration file")
	brokerAddr := flag.String("broker", "127.0.0.1:7070", "broker RPC address")
	in := flag.String("in", "", "update stream file (required)")
	rate := flag.Float64("rate", 0, "updates per second (0 = as fast as possible)")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()
	if *in == "" {
		log.Fatal("helios-replay: -in is required")
	}
	lv, ok := obs.ParseLevel(*logLevel)
	if !ok {
		log.Fatalf("helios-replay: unknown -log-level %q", *logLevel)
	}
	logger := obs.NewLogger(nil, "replay")
	logger.SetLevel(lv)

	ops, err := obs.ServeDefault(*opsAddr)
	if err != nil {
		log.Fatalf("helios-replay: ops listener: %v", err)
	}
	defer ops.Close()

	cfg, err := deploy.Load(*configPath)
	if err != nil {
		log.Fatalf("helios-replay: %v", err)
	}
	bus, err := mq.DialBroker(*brokerAddr, 0)
	if err != nil {
		log.Fatalf("helios-replay: dial broker: %v", err)
	}
	defer bus.Close()
	updates, err := bus.OpenTopic(wire.TopicUpdates, cfg.File.Samplers)
	if err != nil {
		log.Fatalf("helios-replay: %v", err)
	}
	// The frontend's own router, publishing straight to the broker.
	router := frontend.NewRouter(cfg, clock.Wall(), func(p int, key uint64, payload []byte, _ uint64) error {
		_, err := updates.Append(p, key, payload)
		return err
	})

	r, err := streamfile.Open(*in)
	if err != nil {
		log.Fatalf("helios-replay: %v", err)
	}
	defer r.Close()

	var ticker *time.Ticker
	perTick := 0.0
	if *rate > 0 {
		ticker = time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		perTick = *rate / 1000.0
	}
	budget := 0.0
	read := 0
	start := time.Now()
	for {
		u, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("helios-replay: %v", err)
		}
		if ticker != nil {
			for budget < 1 {
				<-ticker.C
				budget += perTick
			}
			budget--
		}
		read++
		if err := router.Ingest(u); err != nil {
			log.Fatalf("helios-replay: %v", err)
		}
	}
	// Edges no registered query samples are dropped by the router.
	sent := int(router.Updates.Value())
	skipped := read - sent
	elapsed := time.Since(start).Seconds()
	logger.Info(0, "frontend.ingest_append", "replay finished",
		"sent", sent, "skipped", skipped, "elapsed_s", elapsed, "rate", float64(sent)/elapsed)
	fmt.Printf("replayed %d updates (%d irrelevant skipped) in %.1fs (%.0f/s)\n",
		sent, skipped, elapsed, float64(sent)/elapsed)
}
