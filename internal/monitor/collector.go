package monitor

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"helios/internal/clock"
	"helios/internal/obs"
)

// The collector's policy, fixed: no deployment ever set these differently.
const (
	// staleIntervals marks a worker stale once its last snapshot is this
	// many telemetry intervals old (the /cluster contract: frozen numbers
	// are flagged, never silently served); deadStales declares it dead —
	// and triggers a flight capture — after this many stale periods.
	staleIntervals = 3
	deadStales     = 3
	// burnCaptureMilli is the SLO burn rate, in the slo.burn_rate_milli
	// convention, at or above which a report triggers a flight capture:
	// burning error budget at twice the provisioned rate.
	burnCaptureMilli = 2000
	// cooldownIntervals is the minimum gap, in telemetry intervals, between
	// captures for the same trigger, so a sustained burn yields one black
	// box, not a disk full of identical ones.
	cooldownIntervals = 10
	// historyViews is the number of trailing cluster views retained for
	// capture context.
	historyViews = 8
)

// CollectorConfig configures the coordinator-side Collector.
type CollectorConfig struct {
	// Clock stamps receive times and drives staleness math; nil defaults
	// to the wall clock.
	Clock clock.Clock
	// Interval is the expected telemetry cadence (the workers'
	// -telemetry-every); a worker is stale after three of them and dead
	// (a flight capture) after nine. 0 defaults to 5s.
	Interval time.Duration
	// Registry receives the cluster worker-count gauges. May be nil.
	Registry *obs.Registry
	// Recorder receives flight captures. May be nil (no captures).
	Recorder *FlightRecorder
	// Logger receives collector events (captures, deaths, re-admissions).
	// May be nil.
	Logger *obs.Logger
}

func (cfg *CollectorConfig) fill() {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
}

func (cfg *CollectorConfig) staleAfter() time.Duration { return staleIntervals * cfg.Interval }
func (cfg *CollectorConfig) deadAfter() time.Duration  { return deadStales * cfg.staleAfter() }

type workerState struct {
	last   *WorkerSnapshot // never nil: a worker exists from its first snapshot
	recvNS int64           // collector clock, last snapshot receive
	dead   bool            // death already announced (capture-once latch)
}

type partitionState struct {
	worker       string
	rate         float64 // latest instantaneous QPS
	lag          int64
	hitRateMilli int64
	stalenessNS  int64
}

// Collector aggregates worker snapshots into the live cluster view. It
// implements Sink, so in-process deployments hand it to Reporters
// directly while multi-process ones front it with ServeRPC.
type Collector struct {
	cfg CollectorConfig

	mu          sync.Mutex
	workers     map[string]*workerState
	parts       map[int]*partitionState
	history     []ClusterView
	lastCapture map[string]int64 // trigger key -> collector-clock ns
}

// NewCollector builds a collector and registers the cluster-level gauges
// on cfg.Registry.
func NewCollector(cfg CollectorConfig) *Collector {
	cfg.fill()
	c := &Collector{
		cfg:         cfg,
		workers:     make(map[string]*workerState),
		parts:       make(map[int]*partitionState),
		lastCapture: make(map[string]int64),
	}
	if reg := cfg.Registry; reg != nil {
		reg.GaugeFunc("cluster.workers", func() int64 {
			alive, _, _ := c.counts()
			return alive
		})
		reg.GaugeFunc("cluster.stale_workers", func() int64 {
			_, stale, _ := c.counts()
			return stale
		})
		reg.GaugeFunc("cluster.dead_workers", func() int64 {
			_, _, dead := c.counts()
			return dead
		})
	}
	return c
}

// counts returns (total, stale, dead) worker counts. Stale excludes dead
// workers so the two gauges partition the unhealthy set.
func (c *Collector) counts() (total, stale, dead int64) {
	nowNS := c.cfg.Clock.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range c.workers {
		total++
		age := nowNS - ws.recvNS
		switch {
		case ws.dead || age > c.cfg.deadAfter().Nanoseconds():
			dead++
		case age > c.cfg.staleAfter().Nanoseconds():
			stale++
		}
	}
	return total, stale, dead
}

// OnSnapshot folds one worker snapshot into the cluster state, updating
// partition rates and evaluating capture triggers. It implements Sink.
func (c *Collector) OnSnapshot(snap *WorkerSnapshot) {
	if snap == nil || snap.Name == "" {
		return
	}
	nowNS := c.cfg.Clock.Now().UnixNano()
	var captures []*Capture

	c.mu.Lock()
	ws := c.workers[snap.Name]
	if ws == nil {
		ws = &workerState{}
		c.workers[snap.Name] = ws
	}
	wasDead := ws.dead || (ws.recvNS > 0 && nowNS-ws.recvNS > c.cfg.deadAfter().Nanoseconds())
	ws.dead = false
	prev := ws.last
	// A restart resets the worker's counters and sequence; differencing
	// across it would produce negative rates, so drop the baseline and
	// take one fresh absolute sample instead.
	if prev != nil && (snap.Seq <= prev.Seq || snap.StartNS != prev.StartNS) {
		prev = nil
	}
	ws.last = snap
	ws.recvNS = nowNS

	for i := range snap.Partitions {
		p := &snap.Partitions[i]
		ps := c.parts[p.Partition]
		if ps == nil {
			ps = &partitionState{}
			c.parts[p.Partition] = ps
		}
		ps.worker = snap.Name
		ps.lag = p.Lag
		ps.stalenessNS = p.StalenessNS
		prevP := findPartition(prev, p.Partition)
		if prevP != nil {
			if dh, dm := p.SampleHits-prevP.SampleHits, p.SampleMisses-prevP.SampleMisses; dh >= 0 && dm >= 0 && dh+dm > 0 {
				ps.hitRateMilli = 1000 * dh / (dh + dm)
			}
			if dt := snap.NowNS - prev.NowNS; dt > 0 && p.Served >= prevP.Served {
				ps.rate = float64(p.Served-prevP.Served) / (float64(dt) / 1e9)
			}
		} else if total := p.SampleHits + p.SampleMisses; total > 0 {
			ps.hitRateMilli = 1000 * p.SampleHits / total
		}
	}

	for i := range snap.SLOs {
		b := &snap.SLOs[i]
		if b.BurnRateMilli < burnCaptureMilli {
			continue
		}
		if !c.allowCaptureLocked("slo_burn/"+snap.Name+"/"+b.Name, nowNS) {
			continue
		}
		doc := c.captureLocked("slo_burn", snap, nowNS)
		doc.SLO = b.Name
		doc.BurnRateMilli = b.BurnRateMilli
		captures = append(captures, doc)
	}
	c.mu.Unlock()

	if wasDead {
		c.cfg.Logger.Info(0, "monitor.collector", "worker re-admitted", "worker", snap.Name)
	}
	c.record(captures)
}

// findPartition locates the matching partition slice in a previous
// snapshot (nil-safe).
func findPartition(s *WorkerSnapshot, partition int) *PartitionStats {
	if s == nil {
		return nil
	}
	for i := range s.Partitions {
		if s.Partitions[i].Partition == partition {
			return &s.Partitions[i]
		}
	}
	return nil
}

// allowCaptureLocked rate-limits captures per trigger key. Caller holds
// c.mu.
func (c *Collector) allowCaptureLocked(key string, nowNS int64) bool {
	if c.cfg.Recorder == nil {
		return false
	}
	if last, ok := c.lastCapture[key]; ok && nowNS-last < cooldownIntervals*c.cfg.Interval.Nanoseconds() {
		return false
	}
	c.lastCapture[key] = nowNS
	return true
}

// captureLocked assembles the common part of a capture document: the
// trigger, the offending worker with the worst trace and slow-log lines of
// its last snapshot, the partition with the highest current rate, the
// current cluster view and the trailing history. Caller holds c.mu.
func (c *Collector) captureLocked(reason string, last *WorkerSnapshot, nowNS int64) *Capture {
	doc := &Capture{
		Reason:    reason,
		Worker:    last.Name,
		Partition: -1,
		View:      c.viewLocked(nowNS),
		History:   append([]ClusterView(nil), c.history...),
		SlowLines: last.SlowLines,
	}
	if len(last.Worst) > 0 {
		doc.WorstTrace = last.Worst[0]
	}
	var best float64
	for p, ps := range c.parts {
		if doc.Partition < 0 || ps.rate > best {
			doc.Partition, best = p, ps.rate
		}
	}
	return doc
}

// record persists captures and logs each one.
func (c *Collector) record(captures []*Capture) {
	for _, doc := range captures {
		path, err := c.cfg.Recorder.Record(doc)
		if err != nil {
			c.cfg.Logger.Error(doc.WorstTrace.ID, "monitor.flight", "flight capture failed",
				"reason", doc.Reason, "err", err)
			continue
		}
		if reg := c.cfg.Registry; reg != nil {
			reg.Counter("cluster.captures", "reason", doc.Reason).Inc()
		}
		c.cfg.Logger.Warn(doc.WorstTrace.ID, "monitor.flight", "flight capture recorded",
			"reason", doc.Reason, "worker", doc.Worker, "partition", doc.Partition,
			"slo", doc.SLO, "burn_milli", doc.BurnRateMilli, "path", path)
	}
}

// Tick scans for newly dead workers (capturing each death once) and
// appends the current view to the capture-context history ring. The
// broker role calls it every Interval; tests call it directly under a
// fake clock.
func (c *Collector) Tick() {
	nowNS := c.cfg.Clock.Now().UnixNano()
	var captures []*Capture
	var deaths []string

	c.mu.Lock()
	for name, ws := range c.workers {
		if ws.dead || nowNS-ws.recvNS <= c.cfg.deadAfter().Nanoseconds() {
			continue
		}
		ws.dead = true
		deaths = append(deaths, name)
		if c.allowCaptureLocked("worker_death/"+name, nowNS) {
			captures = append(captures, c.captureLocked("worker_death", ws.last, nowNS))
		}
	}
	c.history = append(c.history, c.viewLocked(nowNS))
	if n := len(c.history) - historyViews; n > 0 {
		c.history = c.history[n:]
	}
	c.mu.Unlock()

	for _, name := range deaths {
		c.cfg.Logger.Error(0, "monitor.collector", "worker dead",
			"worker", name, "dead_after", c.cfg.deadAfter())
	}
	c.record(captures)
}

// ClusterView is the live cluster document served at GET /cluster.
type ClusterView struct {
	CapturedNS int64           `json:"captured_ns"`
	Workers    []WorkerView    `json:"workers"`
	Partitions []PartitionView `json:"partitions"`
	Stages     []StageRollup   `json:"stages,omitempty"`
}

// WorkerView is one worker's liveness row.
type WorkerView struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Version string `json:"version"`
	Seq     uint64 `json:"seq"`
	// UptimeNS is the worker's self-reported uptime at its last snapshot.
	UptimeNS int64 `json:"uptime_ns"`
	// AgeNS is how long ago (collector clock) the last snapshot arrived.
	AgeNS int64 `json:"age_ns"`
	// Stale flags a worker whose last snapshot is more than three
	// intervals old — its numbers below are frozen, not current. Dead
	// flags one more than nine intervals old.
	Stale bool `json:"stale"`
	Dead  bool `json:"dead"`

	SLOs       []SLOBurn    `json:"slos,omitempty"`
	WorstTrace TraceSummary `json:"worst_trace"`
}

// PartitionView is one partition's row.
type PartitionView struct {
	Partition int    `json:"partition"`
	Worker    string `json:"worker"`
	// RateMilli is the latest instantaneous QPS ×1000.
	RateMilli int64 `json:"rate_milli"`

	Lag          int64 `json:"lag"`
	HitRateMilli int64 `json:"hit_rate_milli"`
	StalenessNS  int64 `json:"staleness_ns"`
	// Stale mirrors the owning worker's staleness flag.
	Stale bool `json:"stale"`
}

// StageRollup aggregates one stage's latency across every worker that
// reported it.
type StageRollup struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	// WorstWorker reported MaxP99NS; MeanP99NS averages the per-worker
	// p99s (unweighted — it ranks stages, it is not a cluster quantile).
	WorstWorker string `json:"worst_worker"`
	MaxP99NS    int64  `json:"max_p99_ns"`
	MeanP99NS   int64  `json:"mean_p99_ns"`
}

// View returns the current cluster view.
func (c *Collector) View() ClusterView {
	nowNS := c.cfg.Clock.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked(nowNS)
}

func (c *Collector) viewLocked(nowNS int64) ClusterView {
	v := ClusterView{
		CapturedNS: nowNS,
		Workers:    make([]WorkerView, 0, len(c.workers)),
		Partitions: make([]PartitionView, 0, len(c.parts)),
	}
	staleWorkers := make(map[string]bool, len(c.workers))
	for name, ws := range c.workers {
		age, s := nowNS-ws.recvNS, ws.last
		wv := WorkerView{
			Name:     name,
			Kind:     s.Kind,
			Version:  s.Version,
			Seq:      s.Seq,
			UptimeNS: s.NowNS - s.StartNS,
			AgeNS:    age,
			Stale:    age > c.cfg.staleAfter().Nanoseconds(),
			Dead:     ws.dead || age > c.cfg.deadAfter().Nanoseconds(),
			SLOs:     append([]SLOBurn(nil), s.SLOs...),
		}
		if len(s.Worst) > 0 {
			wv.WorstTrace = s.Worst[0]
		}
		staleWorkers[name] = wv.Stale || wv.Dead
		v.Workers = append(v.Workers, wv)
	}
	sort.Slice(v.Workers, func(i, j int) bool { return v.Workers[i].Name < v.Workers[j].Name })

	for p, ps := range c.parts {
		v.Partitions = append(v.Partitions, PartitionView{
			Partition:    p,
			Worker:       ps.worker,
			RateMilli:    int64(math.Round(1000 * ps.rate)),
			Lag:          ps.lag,
			HitRateMilli: ps.hitRateMilli,
			StalenessNS:  ps.stalenessNS,
			Stale:        staleWorkers[ps.worker],
		})
	}
	sort.Slice(v.Partitions, func(i, j int) bool { return v.Partitions[i].Partition < v.Partitions[j].Partition })

	type stageAgg struct {
		count       int64
		sumP99      int64
		workers     int64
		maxP99      int64
		worstWorker string
	}
	stages := make(map[string]*stageAgg)
	for name, ws := range c.workers {
		for i := range ws.last.Stages {
			st := &ws.last.Stages[i]
			agg := stages[st.Stage]
			if agg == nil {
				agg = &stageAgg{}
				stages[st.Stage] = agg
			}
			agg.count += st.Count
			agg.sumP99 += st.P99NS
			agg.workers++
			if st.P99NS >= agg.maxP99 {
				agg.maxP99 = st.P99NS
				agg.worstWorker = name
			}
		}
	}
	for stage, agg := range stages {
		v.Stages = append(v.Stages, StageRollup{
			Stage:       stage,
			Count:       agg.count,
			WorstWorker: agg.worstWorker,
			MaxP99NS:    agg.maxP99,
			MeanP99NS:   agg.sumP99 / agg.workers,
		})
	}
	sort.Slice(v.Stages, func(i, j int) bool { return v.Stages[i].Stage < v.Stages[j].Stage })
	return v
}

// Handler serves the cluster view as JSON — mount it on the ops listener
// as the GET /cluster route.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		//lint:allow droppederror reason=HTTP response write: the client hanging up mid-body is not actionable
		_ = json.NewEncoder(w).Encode(c.View())
	})
}
