package monitor

import (
	"sort"
	"sync"

	"helios/internal/clock"
	"helios/internal/obs"
)

// Sink receives worker snapshots: the in-process Collector directly, or
// a Client shipping them to a remote coordinator over RPC.
type Sink interface {
	Report(*WorkerSnapshot) error
}

// Report implements Sink, so in-process deployments hand the Collector
// itself to Reporters.
func (c *Collector) Report(s *WorkerSnapshot) error {
	c.OnSnapshot(s)
	return nil
}

// ReporterConfig configures a worker-side telemetry Reporter.
type ReporterConfig struct {
	// Name and Kind identify the worker in the cluster view (e.g.
	// "server-0", "server").
	Name string
	Kind string
	// Version stamps snapshots; empty defaults to obs.Version().
	Version string
	// Clock stamps snapshot times; nil defaults to the wall clock.
	Clock clock.Clock
	// Registry supplies stage p99s and SLO burn; may be nil.
	Registry *obs.Registry
	// Tracer supplies the worst-trace digests; may be nil.
	Tracer *obs.Tracer
	// LogTail supplies recent slow-log lines (obs.Logger.Tail); may be
	// nil.
	LogTail func() []string
	// Partitions supplies the per-partition counters — a closure over
	// the worker's own stats accessors, so monitor never imports the
	// serving package. May be nil (e.g. the frontend owns no partition).
	Partitions func() []PartitionStats
	// Sink receives the snapshots.
	Sink Sink
	// Logger receives report-failure events; may be nil.
	Logger *obs.Logger
}

// A snapshot carries at most worstTraces trace digests and tailLines lines
// of slow-log tail.
const (
	worstTraces = 3
	tailLines   = 8
)

// Reporter assembles this worker's WorkerSnapshot and hands it to the Sink
// each time its owner (the role assembler's periodic loop) calls
// ReportOnce. Failures are logged and retried next interval — the
// telemetry plane must never take a worker down.
type Reporter struct {
	cfg     ReporterConfig
	startNS int64

	mu  sync.Mutex
	seq uint64
}

// NewReporter builds a reporter. The process start time is taken from
// cfg.Clock at construction, so construct it at startup.
func NewReporter(cfg ReporterConfig) *Reporter {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	if cfg.Version == "" {
		cfg.Version = obs.Version()
	}
	return &Reporter{cfg: cfg, startNS: cfg.Clock.Now().UnixNano()}
}

// Snapshot assembles the current WorkerSnapshot.
func (r *Reporter) Snapshot() *WorkerSnapshot {
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	s := &WorkerSnapshot{
		Name:    r.cfg.Name,
		Kind:    r.cfg.Kind,
		Version: r.cfg.Version,
		Seq:     seq,
		StartNS: r.startNS,
		NowNS:   r.cfg.Clock.Now().UnixNano(),
	}
	if r.cfg.Partitions != nil {
		s.Partitions = r.cfg.Partitions()
		sort.Slice(s.Partitions, func(i, j int) bool {
			return s.Partitions[i].Partition < s.Partitions[j].Partition
		})
	}
	if reg := r.cfg.Registry; reg != nil {
		snap := reg.Snapshot()
		for name, hs := range snap.Stages {
			if hs.Count == 0 {
				continue
			}
			_, labels := obs.ParseName(name)
			s.Stages = append(s.Stages, StageP99{
				Stage: labels["stage"],
				Count: hs.Count,
				P50NS: hs.P50,
				P99NS: hs.P99,
			})
		}
		sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Stage < s.Stages[j].Stage })
		for name, slo := range snap.SLOs {
			s.SLOs = append(s.SLOs, SLOBurn{
				Name:          name,
				BurnRateMilli: int64(slo.BurnRate * 1000),
				Bad:           slo.Bad,
				Good:          slo.Good,
			})
		}
		sort.Slice(s.SLOs, func(i, j int) bool { return s.SLOs[i].Name < s.SLOs[j].Name })
	}
	if tr := r.cfg.Tracer; tr != nil {
		slowest := tr.Slowest()
		if len(slowest) > worstTraces {
			slowest = slowest[:worstTraces]
		}
		for _, t := range slowest {
			s.Worst = append(s.Worst, summarize(t))
		}
	}
	if r.cfg.LogTail != nil {
		lines := r.cfg.LogTail()
		if len(lines) > tailLines {
			lines = lines[len(lines)-tailLines:]
		}
		s.SlowLines = lines
	}
	return s
}

// summarize digests one trace to its ID, total and dominant stage.
func summarize(t obs.Trace) TraceSummary {
	out := TraceSummary{ID: t.ID, Op: t.Op, TotalNS: t.Total}
	for _, sp := range t.Spans {
		if sp.Dur > out.WorstStageNS {
			out.WorstStage = sp.Name
			out.WorstStageNS = sp.Dur
		}
	}
	return out
}

// ReportOnce assembles and delivers one snapshot.
func (r *Reporter) ReportOnce() error {
	err := r.cfg.Sink.Report(r.Snapshot())
	if err != nil {
		r.cfg.Logger.Warn(0, "monitor.reporter", "telemetry report failed",
			"worker", r.cfg.Name, "err", err)
	}
	return err
}
