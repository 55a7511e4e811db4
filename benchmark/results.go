package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json carries the same
// list for the driver; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// Two thresholds, because they answer two questions.
//
// regressionBound is the issue's tenth: `compare` calls a median that is
// worse by more than this, and by more than the parent's own inter-quartile
// distance, a regression, and calls a metric whose runs spread wider than
// this unresolved instead of unchanged.
//
// The gates are what the driver enforces on single sets of runs, and it
// refuses a benchmark whose same-commit spread exceeds them. On the two-core
// shared host this was written on whole runs drift together: ten seeds
// spread 2-8 % in a quiet stretch and 10-15 % beside a noisy neighbour, with
// set medians of one commit up to 18 % apart (README, "Run-to-run spread"),
// and no in-run statistic votes that out (trials inside a run agree to
// 3-4 %). So every timing's gate is the widest the driver allows; only the
// live heap, a count and not a time, repeats well inside a tenth.
const (
	regressionBound = 0.10
	timingGate      = 0.25
	heapGate        = 0.10
)

// gateOf is the bound BENCHMARK.json hands the driver for an end-to-end
// metric: the share of the parent's median by which it may worsen before the
// driver rejects a change outright.
func gateOf(name string) float64 {
	if name == "heap_live_mb" {
		return heapGate
	}
	return timingGate
}

// endToEnd is what a user of the system would see, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"query_qps", "1/s", true},
	{"query_p50_ms", "ms", false},
	{"cpu_us_per_query", "us", false},
	{"ingest_kups", "kups", true},
	{"cpu_us_per_update", "us", false},
	{"visibility_p50_ms", "ms", false},
	{"heap_live_mb", "MB", false},
}

// perLayer is what the traced run and the /bench/stats differences report,
// grouped by path.
var perLayer = []metricDef{
	// Query path, outermost layer first (self times add up to the gateway
	// probe's span).
	{"frontend.gateway_self_us", "us", false},
	{"frontend.sample_self_us", "us", false},
	{"rpc.sample_self_us", "us", false},
	{"serving.sample_us", "us", false},
	{"serving.sample_p99_us", "us", false},
	{"serving.sample_allocs_per_op", "count", false},
	{"serving.sample_bytes_per_op", "B", false},
	{"serving.lookups_per_query", "count", false},
	{"serving.result_encode_us", "us", false},
	{"serving.result_decode_us", "us", false},
	{"frontend.gateway_resp_bytes", "B", false},
	{"trace.e2e_gap_pct", "%", false},
	// Update path.
	{"frontend.ingest_self_us", "us", false},
	{"mq.append_remote_us", "us", false},
	{"mq.append_batch_remote_ns_per_rec", "ns", false},
	{"mq.append_local_ns", "ns", false},
	{"mq.poll_ns_per_rec", "ns", false},
	{"rpc.echo_rtt_us", "us", false},
	{"rpc.echo_allocs_per_op", "count", false},
	{"codec.update_encode_ns", "ns", false},
	{"codec.update_decode_ns", "ns", false},
	{"wire.upsert_encode_ns", "ns", false},
	{"wire.upsert_decode_ns", "ns", false},
	{"sampling.offer_topk_ns", "ns", false},
	{"sampling.offer_random_ns", "ns", false},
	{"sampler.update_us", "us", false},
	{"serving.apply_us", "us", false},
	{"kvstore.get_mem_ns", "ns", false},
	{"kvstore.put_mem_ns", "ns", false},
	{"kvstore.get_run_ns", "ns", false},
	// Seen from outside across the untraced measured phase. The two p99s are
	// end-to-end figures that do not repeat within a tenth on ten seeds
	// (README, "Run-to-run spread"), so they are reported here, without a
	// bound.
	{"query_p99_ms", "ms", false},
	{"visibility_p99_ms", "ms", false},
	{"serving.served", "count", true},
	{"serving.applied", "count", true},
	{"serving.sample_miss_ratio", "ratio", false},
	{"serving.feature_miss_ratio", "ratio", false},
	{"serving.cache_bytes", "B", false},
	{"serving.cache_bytes_per_entry", "B", false},
	{"sampler.updates_processed", "count", true},
	{"sampler.admission_ratio", "ratio", false},
	{"sampler.msgs_per_update", "count", false},
	{"mq.backlog_end", "count", false},
	{"mq.backlog_max", "count", false},
	{"sut.alloc_kb_per_op", "KB", false},
	{"sut.gc_cycles", "count", false},
	{"sut.gc_pause_ms", "ms", false},
	{"gen.late_p99_ms", "ms", false},
	{"gen.cpu_share", "ratio", false},
}

// hostInfo says where and from what a results file came.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	OSArch     string `json:"os_arch"`
}

func thisHost() hostInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostInfo{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// resultsSchema names the results-file layout; bump it when a field changes
// meaning.
const resultsSchema = "helios-benchmark/1"

// resultsParams records how the runs in a results file were made.
type resultsParams struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trials  int     `json:"trials"`
	Shrink  float64 `json:"size_shrink"`
	Repeat  int     `json:"repeat"`
	Traced  bool    `json:"traced"`
	// TraceOps bounds each traced path (traced runs only).
	TraceOps int `json:"trace_ops,omitempty"`
}

// resultsFile is what `run` writes and `compare` reads.
type resultsFile struct {
	Schema string        `json:"schema"`
	Host   hostInfo      `json:"host"`
	Params resultsParams `json:"params"`
	Runs   []*runResult  `json:"runs"`
}

// writeJSONFile writes v to path as indented JSON.
func writeJSONFile(path string, v any) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

// values collects one end-to-end metric of one workload across a file's
// runs, in run order.
func (f *resultsFile) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// contractLine is the driver's result object: the last line of stdout.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract renders a run for the driver: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func (r *runResult) contract(traced bool) contractLine {
	defs, from := endToEnd, r.EndToEnd
	if traced {
		defs, from = perLayer, r.PerLayer
	}
	line := contractLine{
		Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.name] = contractMetric{Value: from[d.name].Value, Unit: d.unit}
	}
	return line
}

// compareVerdict applies the choosing-metrics rule to one metric of one
// workload. Either claim needs the medians to differ by more than the
// parent's own inter-quartile distance: a gain also needs the change to win
// at least nine tenths of the pairs (ties count for neither side), a
// regression a median worse by more than regressionBound. Short of a claim,
// a spread wider than regressionBound on either side leaves the metric
// unresolved, not unchanged.
func compareVerdict(def metricDef, parent, change []float64) (verdict string, wins, pairs int) {
	pairs = len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	for i := 0; i < pairs; i++ {
		if better(def, change[i], parent[i]) {
			wins++
		}
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	worse := (cm - pm) / pm
	if def.higher {
		worse = -worse
	}
	beyondNoise := math.Abs(cm-pm) > q3-q1
	switch {
	case pairs == 0 || pm == 0:
		return "no data", wins, pairs
	case worse > regressionBound && beyondNoise:
		return "REGRESSION", wins, pairs
	case float64(wins) >= 0.9*float64(pairs) && better(def, cm, pm) && beyondNoise:
		return "gain", wins, pairs
	case spread(parent) > regressionBound || spread(change) > regressionBound:
		return "unresolved", wins, pairs
	default:
		return "unchanged", wins, pairs
	}
}

func better(def metricDef, a, b float64) bool {
	if def.higher {
		return a > b
	}
	return a < b
}

// compareMain prints, for every workload and end-to-end metric two results
// files share, both sides' median and quartiles and the verdict. It fails if
// any metric regressed.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("compare takes two results files: parent, then change")
	}
	parent, err := readResults(args[0])
	if err != nil {
		return err
	}
	change, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "parent %s (%s)  change %s (%s)\n", short(parent.Host.Commit), args[0], short(change.Host.Commit), args[1])
	regressed := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			pv, cv := parent.values(w.name, def.name), change.values(w.name, def.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			verdict, wins, pairs := compareVerdict(def, pv, cv)
			if verdict == "REGRESSION" {
				regressed++
			}
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(out, "%-12s %-18s parent %10.4f [%10.4f %10.4f]  change %10.4f [%10.4f %10.4f] %-5s %+6.1f%%  won %d/%d  %s\n",
				w.name, def.name, pm, pq1, pq3, cm, cq1, cq3, def.unit, 100*(cm-pm)/pm, wins, pairs, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}
