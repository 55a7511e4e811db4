package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
)

// runMain is `benchmark run` (and, with traced set, `benchmark trace`): it
// runs the selected workloads, prints every metric by name with its unit and
// sample count, writes the results file, and fails if any operation failed.
// With -workload it ends its output with the driver's one-line result.
func runMain(args []string, traced bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = also run the traced, single-process pass and report per-layer metrics")
	repeat := fs.Int("repeat", 1, "run each workload this many times and print median, quartiles and spread")
	pprofDir := fs.String("pprof", "", "make the SUT child write cpu/heap/mutex profiles here (never for recorded numbers)")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for results and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	traced = traced || *trace == 1
	if *seconds <= 0 || *repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	defs := workloads
	if *name != "" {
		def, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		defs = []workloadDef{def}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	// The generator shares two cores with the system it measures: collect
	// its own garbage a quarter as often as the default would.
	debug.SetGCPercent(400)

	// A traced run reports per-layer metrics: its untraced part is one trial,
	// there for the /bench/stats counts and the median the gateway probe is
	// compared with.
	trials, phase := defaultTrials, *seconds
	tp := traceParams{shrink: sizeShrink, seed: *seed, ops: traceOpsFor(*seconds), tmpDir: *outDir}
	if traced {
		trials, phase = 1, *seconds/defaultTrials
	}
	file := &resultsFile{
		Schema: resultsSchema, Host: thisHost(),
		Params: resultsParams{Seed: *seed, Seconds: *seconds, Trials: trials, Shrink: sizeShrink, Repeat: *repeat, Traced: traced},
	}
	if traced {
		file.Params.TraceOps = tp.ops
	}
	var failed int64
	var last *runResult
	for _, def := range defs {
		for rep := 0; rep < *repeat; rep++ {
			dir := ""
			if *pprofDir != "" {
				dir = filepath.Join(*pprofDir, def.name)
			}
			res, err := runWorkload(runParams{
				def: def, seed: *seed, seconds: phase, trials: trials, shrink: sizeShrink,
				pprofDir: dir, logf: logf,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			if traced {
				tp.def = def
				if err := addTrace(res, tp, filepath.Join(*outDir, "trace-"+def.name+".json")); err != nil {
					return fmt.Errorf("%s: %w", def.name, err)
				}
			}
			printRun(res, traced)
			file.Runs = append(file.Runs, res)
			failed += res.Failed
			last = res
		}
		if *repeat > 1 {
			printSummary(file, def.name)
		}
	}
	path := filepath.Join(*outDir, "results.json")
	if err := writeJSONFile(path, file); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", path)
	if *name != "" {
		line, err := json.Marshal(last.contract(traced))
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if failed > 0 {
		return fmt.Errorf("%d operation(s) failed", failed)
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// addTrace runs the traced pass for res's workload, folds its metrics and
// failures into res and writes the spans.
func addTrace(res *runResult, tp traceParams, spanPath string) error {
	tr, err := runTrace(tp)
	if err != nil {
		return err
	}
	for k, m := range tr.metrics {
		res.PerLayer[k] = m
	}
	// What the single-goroutine gateway probe does not explain of the
	// two-process, two-connection median: process crossing and contention.
	if p50 := res.EndToEnd["query_p50_ms"].Value; p50 > 0 {
		res.PerLayer["trace.e2e_gap_pct"] = metric{Value: 100 * (p50 - tr.gatewayP50ms) / p50, Unit: "%"}
	}
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	if tr.firstErr != nil && res.FirstErr == "" {
		res.FirstErr = tr.firstErr.Error()
	}
	return writeJSONFile(spanPath, tr.spans)
}

// defaultSeconds is the measured phase BENCHMARK.json's run_seconds names;
// defaultTrials is how many trials a run is made of (see runParams.trials).
const (
	defaultSeconds = 12
	defaultTrials  = 3
)

// printRun prints one run's metrics by name with unit and sample count.
func printRun(r *runResult, traced bool) {
	fmt.Printf("\n%s  seed=%d seconds=%g  attempted=%d failed=%d\n", r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed)
	if r.FirstErr != "" {
		fmt.Printf("  first failure: %s\n", r.FirstErr)
	}
	row := func(d metricDef, m metric) {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Printf("  %-36s %14.4f %-6s %s\n", d.name, m.Value, d.unit, n)
	}
	if !traced {
		for _, d := range endToEnd {
			row(d, r.EndToEnd[d.name])
		}
	}
	for _, d := range perLayer {
		if m, ok := r.PerLayer[d.name]; ok {
			row(d, m)
		}
	}
}

// printSummary prints each end-to-end metric's median, quartiles and spread
// across a workload's repeated runs.
func printSummary(f *resultsFile, workload string) {
	fmt.Printf("\n%s  %d runs: median [q1 q3] spread\n", workload, f.Params.Repeat)
	for _, d := range endToEnd {
		vs := f.values(workload, d.name)
		if len(vs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(vs)
		fmt.Printf("  %-20s %12.4f [%12.4f %12.4f] %-5s spread %5.1f%% (driver gate %2.0f%%)\n",
			d.name, q2, q1, q3, d.unit, 100*spread(vs), 100*gateOf(d.name))
	}
}
