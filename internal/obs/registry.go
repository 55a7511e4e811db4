// Package obs is the Helios observability layer: a named metrics registry
// (counters, gauges, histograms with labels), request tracing with
// per-stage spans, and the ops HTTP endpoints every binary can expose
// (/metrics, /traces, net/http/pprof).
//
// The paper's claims are claims about *where time goes* — pre-sampling
// moves work to the ingestion path (§5), the query-aware cache bounds
// serving to a fixed number of local lookups (§6), and the
// sampling/serving split isolates ingestion bursts from request latency
// (§4). The registry and tracer make those decompositions measurable on a
// live deployment instead of only in the offline experiment harness:
// per-stage request spans attribute a slow request, MQ consumer-lag and
// sample-table staleness gauges quantify the §5 freshness story, and
// cache hit/miss counters validate the §6 locality story.
//
// Everything is stdlib-only and lock-free on the update path (atomic
// counters, gauges and log-bucket histograms), so registered metrics are
// safe on the serving hot path. Components never read the wall clock
// through this package — durations and timestamps are stamped by the
// caller's injected internal/clock, so unit tests advance a fake clock
// instead of sleeping.
package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is an atomic event counter. The zero value is ready to use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a settable instantaneous value (last-write-wins), e.g. the
// event-time staleness of the most recent cache apply. The zero value is
// ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metrics. Metric handles are created
// once (get-or-create by name) and then updated lock-free; the registry
// mutex guards only the name tables, never the hot update path.
//
// Names follow a dotted "component.metric" convention with optional
// labels: Name("mq.consumer_lag", "topic", t, "partition", "2") renders
// as `mq.consumer_lag{partition=2,topic=t}` (labels sorted, so the same
// metric always has one canonical name).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	// hists holds every histogram, the per-stage family (Registry.Stage)
	// included: a stage is a histogram named stage.latency_ns{stage=…}.
	hists map[string]*Histogram
	// fns are values computed at scrape time from component state
	// (consumer lag, cache bytes, sums over per-instance counters).
	counterFns map[string]func() int64
	gaugeFns   map[string]func() int64
	slos       map[string]*SLO
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		counterFns: make(map[string]func() int64),
		gaugeFns:   make(map[string]func() int64),
		slos:       make(map[string]*SLO),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the cmd/ binaries expose on
// their ops listener. Libraries take an injected *Registry instead and
// only fall back to a private one, so unit tests never share state.
func Default() *Registry { return defaultRegistry }

// Name renders a metric name with labels in canonical (sorted) form.
// Labels are alternating key, value pairs; a trailing odd key is ignored.
// Keys and values are escaped (see EscapeLabel) so an adversarial topic
// or experiment name cannot smuggle a separator, quote or newline into
// the scrape output; the common all-clean case renders byte-identically
// to the unescaped form.
func Name(base string, labels ...string) string {
	if len(labels) < 2 {
		return base
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(EscapeLabel(p.k))
		b.WriteByte('=')
		b.WriteString(EscapeLabel(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// labelNeedsEscape reports whether c would corrupt the `base{k=v,...}`
// rendering or the line-oriented text exposition.
func labelNeedsEscape(c byte) bool {
	switch c {
	case '\\', '"', '\n', '\r', ',', '=', '{', '}', ' ':
		return true
	}
	return false
}

// EscapeLabel escapes a label key or value for the canonical metric-name
// rendering: backslash-escapes the structural bytes (`, = { }`), space
// (the name/value separator in text lines), quotes and backslashes, and
// rewrites newlines as \n / \r so one metric is always one line. Clean
// strings return unchanged (same backing array, no allocation).
func EscapeLabel(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if labelNeedsEscape(s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	b := make([]byte, 0, len(s)+4)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		default:
			if labelNeedsEscape(c) {
				b = append(b, '\\', c)
			} else {
				b = append(b, c)
			}
		}
	}
	return string(b)
}

// UnescapeLabel inverts EscapeLabel.
func UnescapeLabel(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			default:
				b = append(b, s[i])
			}
			continue
		}
		b = append(b, c)
	}
	return string(b)
}

// ParseName splits a canonical metric name back into its base and label
// pairs, undoing EscapeLabel — the scrape-side inverse of Name. Names
// without labels return a nil map.
func ParseName(name string) (base string, labels map[string]string) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	base = name[:open]
	body := name[open+1 : len(name)-1]
	if body == "" {
		return base, nil
	}
	labels = make(map[string]string)
	var k []byte
	var cur []byte
	flushPair := func() {
		if k != nil {
			labels[UnescapeLabel(string(k))] = UnescapeLabel(string(cur))
		}
		k, cur = nil, nil
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == '\\' && i+1 < len(body):
			cur = append(cur, c, body[i+1])
			i++
		case c == '=' && k == nil:
			k = cur
			if k == nil {
				k = []byte{}
			}
			cur = nil
		case c == ',':
			flushPair()
		default:
			cur = append(cur, c)
		}
	}
	flushPair()
	return base, labels
}

// getOrCreate is the shared shape of Counter, Gauge and Histogram: a read
// lock on the fast path, the write lock only to insert.
func getOrCreate[T any](r *Registry, table map[string]*T, name string) *T {
	r.mu.RLock()
	v := table[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = table[name]; v == nil {
		v = new(T)
		table[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(base string, labels ...string) *Counter {
	return getOrCreate(r, r.counters, Name(base, labels...))
}

// AddCounter publishes c, a counter a component already owns (and its
// tests read directly), under the given name: the component's field is
// the one instrument and the registry only points at it.
func (r *Registry) AddCounter(c *Counter, base string, labels ...string) {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// Sum adds up every counter registered under base, whatever its labels —
// how a per-instance family (overload.shed{stage,reason}) yields its
// process total when read instead of a second counter bumped beside it.
func (r *Registry) Sum(base string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sum int64
	for name, c := range r.counters {
		if name == base || strings.HasPrefix(name, base+"{") {
			sum += c.Value()
		}
	}
	return sum
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(base string, labels ...string) *Gauge {
	return getOrCreate(r, r.gauges, Name(base, labels...))
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(base string, labels ...string) *Histogram {
	return getOrCreate(r, r.hists, Name(base, labels...))
}

// StageMetric is the base name every per-stage latency histogram is
// registered under; the stage itself is the `stage` label.
const StageMetric = "stage.latency_ns"

// Stage returns the histogram for one pipeline stage, creating it on first
// use. All stage histograms share the base name "stage.latency_ns" with
// the stage as a label (plus any extra labels), so the whole request path
// reads as one labelled family:
//
//	stage.latency_ns{stage=serving.khop_assembly}_p99
//
// Stage names should come from the Stage* constants so the lint suite can
// vouch for bounded cardinality.
func (r *Registry) Stage(stage string, labels ...string) *Histogram {
	return r.Histogram(StageMetric, append([]string{"stage", stage}, labels...)...)
}

// SLO returns the named burn-rate objective, creating and registering it
// on first use (an existing name wins over new parameters, mirroring the
// other get-or-create constructors). Registered SLOs are part of every
// snapshot — /slo serves that section — and fold into its gauges as
// slo.burn_rate_milli.
func (r *Registry) SLO(name string, target time.Duration, objective float64, window time.Duration) *SLO {
	r.mu.RLock()
	s := r.slos[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.slos[name]; s == nil {
		s = NewSLO(name, target, objective, window)
		r.slos[name] = s
	}
	return s
}

// ReplaceSLO installs s under its name, displacing any previously
// registered objective — the re-targeting path (Registry.SLO is
// get-or-create and ignores new parameters).
func (r *Registry) ReplaceSLO(s *SLO) {
	if s == nil {
		return
	}
	r.mu.Lock()
	r.slos[s.Name] = s
	r.mu.Unlock()
}

// CounterFunc registers a monotonic value computed at scrape time: a sum
// over per-instance counters (rpc.reconnects across every client).
func (r *Registry) CounterFunc(base string, fn func() int64, labels ...string) {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFns[name] = fn
}

// GaugeFunc registers an instantaneous value computed at scrape time
// (consumer lag, cache bytes, pool depths).
func (r *Registry) GaugeFunc(base string, fn func() int64, labels ...string) {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Snapshot is a point-in-time copy of every registered metric, in the
// shape served by /metrics?format=json.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	// Stages are the histograms of the stage.latency_ns family, split out
	// of Histograms so the per-stage view reads on its own.
	Stages map[string]HistSnapshot `json:"stages,omitempty"`
	// SLOs are the registered burn-rate objectives, keyed by SLO name.
	SLOs map[string]SLOSnapshot `json:"slos,omitempty"`
}

// Snapshot captures all metrics. The name tables are copied under the
// lock; values are read and scrape functions run outside it, so a function
// may itself consult the registry (Sum) and a slow one never blocks a
// registration.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters, gauges, hists := maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.hists)
	counterFns, gaugeFns, slos := maps.Clone(r.counterFns), maps.Clone(r.gaugeFns), maps.Clone(r.slos)
	r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)+len(counterFns)),
		Gauges:     make(map[string]int64, len(gauges)+len(gaugeFns)+len(slos)),
		Histograms: make(map[string]HistSnapshot),
	}
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range counterFns {
		s.Counters[name] = fn()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range hists {
		if strings.HasPrefix(name, StageMetric+"{") {
			if s.Stages == nil {
				s.Stages = make(map[string]HistSnapshot)
			}
			s.Stages[name] = h.Snapshot()
		} else {
			s.Histograms[name] = h.Snapshot()
		}
	}
	if len(slos) > 0 {
		s.SLOs = make(map[string]SLOSnapshot, len(slos))
		for name, slo := range slos {
			snap := slo.Snapshot()
			s.SLOs[name] = snap
			// Fold the burn state into the gauge section so plain /metrics
			// scrapers (and the text exposition) see it without a new shape.
			s.Gauges[Name("slo.burn_rate_milli", "slo", name)] = int64(snap.BurnRate * 1000)
		}
	}
	return s
}

// WriteText renders the snapshot as sorted `name value` lines — the
// plain-text /metrics format. Histograms expand into per-quantile lines.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+8*(len(s.Histograms)+len(s.Stages)))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for _, hists := range []map[string]HistSnapshot{s.Histograms, s.Stages} {
		for name, h := range hists {
			lines = append(lines,
				fmt.Sprintf("%s_count %d", name, h.Count),
				fmt.Sprintf("%s_mean %.0f", name, h.Mean),
				fmt.Sprintf("%s_p50 %d", name, h.P50),
				fmt.Sprintf("%s_p90 %d", name, h.P90),
				fmt.Sprintf("%s_p99 %d", name, h.P99),
				fmt.Sprintf("%s_p999 %d", name, h.P999),
				fmt.Sprintf("%s_max %d", name, h.Max))
			// The text scrape keeps the p99→trace link: the exemplar line's
			// value is the hex trace ID to resolve on /traces.
			if h.P99Exemplar != "" {
				lines = append(lines, fmt.Sprintf("%s_p99_exemplar %s", name, h.P99Exemplar))
			}
		}
	}
	sort.Strings(lines)
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
