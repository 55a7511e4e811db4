// Command helios-bench regenerates the paper's evaluation tables and
// figures (§7) against this repository's implementations. Each subcommand
// runs one experiment and prints paper-style rows; "all" runs everything in
// order.
//
// Usage:
//
//	helios-bench [flags] <experiment>
//
// Experiments: table1 table2 fig4a fig4b fig4c fig4d fig9 fig11 fig12
// fig13 fig14 fig15 fig16 fig17 fig18 fig19 raw all
//
// The extra "cluster" subcommand is an operator dump, not an experiment:
// it scrapes a live coordinator's GET /cluster endpoint (-cluster-url)
// and/or reads a flight-recorder directory (-flight-dir) and renders the
// worker liveness table, partition heat table, and newest capture.
//
// (fig9 prints both the throughput rows of Fig. 9 and the latency rows of
// Fig. 10 — they come from the same sweep.)
//
// The default scale (0.1) finishes each experiment in seconds; pass
// -scale 1 for the full laptop-scale shapes (~1/10000 of the paper's
// billion-edge datasets; see DESIGN.md for the substitution rationale).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"helios/internal/experiments"
	"helios/internal/obs"
	"helios/internal/overload"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale multiplier")
	duration := flag.Duration("duration", 2*time.Second, "measured load phase per point")
	conc := flag.String("concurrency", "10,50,200", "comma-separated closed-loop client counts")
	samplers := flag.Int("samplers", 4, "Helios sampling workers (paper: 4)")
	servers := flag.Int("servers", 6, "Helios serving workers (paper: 6)")
	baseline := flag.Int("baseline-nodes", 4, "distributed baseline partition count")
	netDelay := flag.Duration("net-delay", 0, "injected per-RPC delay for the baseline (models datacenter RTT)")
	seed := flag.Int64("seed", 42, "random seed")
	clusterURL := flag.String("cluster-url", "", "coordinator ops address or URL to scrape for the cluster subcommand")
	flightDir := flag.String("flight-dir", "", "flight-recorder directory to read for the cluster subcommand")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	lv, ok := obs.ParseLevel(*logLevel)
	if !ok {
		log.Fatalf("helios-bench: unknown -log-level %q", *logLevel)
	}
	logger := obs.NewLogger(os.Stderr, "bench")
	logger.SetLevel(lv)

	// The overload totals (overload.shed, overload.degraded) show on the
	// ops listener, so a run that shed load is distinguishable from one
	// that absorbed it.
	overload.RegisterMetrics(obs.Default())
	ops, err := obs.ServeDefault(*opsAddr)
	if err != nil {
		log.Fatalf("helios-bench: ops listener: %v", err)
	}
	defer ops.Close()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: helios-bench [flags] <experiment>")
		fmt.Fprintln(os.Stderr, "experiments: table1 table2 fig4a fig4b fig4c fig4d fig9 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 raw all")
		fmt.Fprintln(os.Stderr, "operator dump: cluster -cluster-url <ops-addr> [-flight-dir <dir>]")
		os.Exit(2)
	}
	if strings.EqualFold(flag.Arg(0), "cluster") {
		if err := runCluster(*clusterURL, *flightDir, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "helios-bench %v\n", err)
			os.Exit(1)
		}
		return
	}

	var concs []int
	for _, part := range strings.Split(*conc, ",") {
		var c int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &c); err == nil && c > 0 {
			concs = append(concs, c)
		}
	}
	cfg := experiments.Config{
		Scale:         *scale,
		Duration:      *duration,
		Concurrencies: concs,
		Samplers:      *samplers,
		Servers:       *servers,
		BaselineNodes: *baseline,
		NetDelay:      *netDelay,
		Seed:          *seed,
		Out:           os.Stdout,
		Metrics:       obs.Default(),
	}

	type experiment struct {
		name string
		run  func(experiments.Config) error
	}
	all := []experiment{
		{"table1", wrap(experiments.Table1)},
		{"table2", wrap(experiments.Table2)},
		{"fig4a", wrap(experiments.Fig4a)},
		{"fig4b", wrap(experiments.Fig4b)},
		{"fig4c", wrap(experiments.Fig4c)},
		{"fig4d", wrap(experiments.Fig4d)},
		{"fig9", wrap(experiments.Fig9And10)},
		{"fig11", wrap(experiments.Fig11)},
		{"fig12", wrap(experiments.Fig12)},
		{"fig13", wrap(experiments.Fig13)},
		{"fig14", wrap(experiments.Fig14)},
		{"fig15", wrap(experiments.Fig15)},
		{"fig16", wrap(experiments.Fig16)},
		{"fig17", wrap(experiments.Fig17)},
		{"fig18", wrap(experiments.Fig18)},
		{"fig19", wrap(experiments.Fig19)},
		{"raw", wrap(experiments.ReadAfterWrite)},
	}

	name := strings.ToLower(flag.Arg(0))
	if name == "fig10" {
		name = "fig9"
	}
	run := func(e experiment) {
		start := time.Now()
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "helios-bench %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", e.name, time.Since(start).Seconds())
		logger.Info(0, "bench.run", "experiment completed",
			"experiment", e.name, "elapsed_s", time.Since(start).Seconds())
	}
	if name == "all" {
		for _, e := range all {
			run(e)
		}
		return
	}
	for _, e := range all {
		if e.name == name {
			run(e)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "helios-bench: unknown experiment %q\n", name)
	os.Exit(2)
}

// wrap adapts an experiment, which also returns its rows for tests, to the
// runner, which only prints.
func wrap[T any](f func(experiments.Config) (T, error)) func(experiments.Config) error {
	return func(c experiments.Config) error {
		_, err := f(c)
		return err
	}
}
