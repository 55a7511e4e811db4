package obs

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/graph"
)

// Request tracing. A trace ID is minted at the frontend when a request
// enters the system and travels with the request through the RPC envelope
// (internal/rpc frame header) and, on the update path, through MQ record
// payload headers (internal/wire, graph.Update.Trace). Each stage that
// handles the request appends a named span; the completed trace — queue
// wait, cache lookup / K-hop assembly, feature fetch, transport — is
// recorded into a bounded ring buffer plus a worst-N capture, so a slow
// request can be attributed to a stage after the fact via /traces.

// Span is one named stage of a request.
type Span struct {
	// Name identifies the stage (e.g. "serving.queue_wait").
	Name string `json:"name"`
	// Dur is the stage duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
}

// Trace is one completed request with its stage decomposition.
type Trace struct {
	// ID is the trace ID minted at the frontend (never 0 for a real trace).
	ID uint64 `json:"id"`
	// Op names the operation ("sample", "ingest", ...).
	Op string `json:"op"`
	// Start is the trace start in nanoseconds (caller's clock).
	Start int64 `json:"start_ns"`
	// Total is the end-to-end duration in nanoseconds. The spans sum to at
	// most Total; the remainder is time outside any instrumented stage.
	Total int64 `json:"total_ns"`
	// Spans are the recorded stages in execution order.
	Spans []Span `json:"spans"`
}

// SpanSum returns the summed span durations.
func (t Trace) SpanSum() int64 {
	var sum int64
	for _, s := range t.Spans {
		sum += s.Dur
	}
	return sum
}

// Tracer collects completed traces: the most recent ringCap traces plus
// the worstN slowest since start (the slow-request capture /traces
// serves). Recording is O(ringCap ins) + O(worstN) under one mutex — it
// runs once per *traced* request, and components only trace requests that
// arrived with a nonzero trace ID, so untraced hot-path traffic (local
// benchmarks) never pays it.
type Tracer struct {
	mu     sync.Mutex
	recent []Trace
	next   int // ring cursor into recent
	filled bool
	worst  []Trace // sorted by Total descending, ≤ worstN
	worstN int

	nextID atomic.Uint64
	seed   uint64
}

// The span-payload budget of one retained trace: at most MaxSpans spans and
// MaxSpanBytes of span-name bytes, so retained memory is bounded by
// (ringCap+worstN)·MaxSpanBytes no matter what callers record under
// sustained load. 64 spans comfortably covers the deepest instrumented
// path (K hops × a few stages each); 4KiB of span names is ~an order of
// magnitude above what real stages produce.
const (
	MaxSpans     = 64
	MaxSpanBytes = 4096
)

// spanOverhead approximates the fixed in-memory cost of one Span beyond
// its name bytes (string header + duration).
const spanOverhead = 24

// traceSeed distinguishes processes minting IDs concurrently. It reads
// the wall clock once at startup — acceptable here because obs is not a
// replay-deterministic package and IDs only need uniqueness, not
// reproducibility.
var traceSeed = func() uint64 {
	return graph.Hash64(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
}()

// NewTracer returns a tracer retaining the last ringCap traces and the
// worstN slowest. Zero values default to 256 and 16.
func NewTracer(ringCap, worstN int) *Tracer {
	if ringCap <= 0 {
		ringCap = 256
	}
	if worstN <= 0 {
		worstN = 16
	}
	return &Tracer{recent: make([]Trace, 0, ringCap), worstN: worstN, seed: traceSeed}
}

// truncatedSpan marks clipped traces; its duration folds in everything
// the budget dropped, so SpanSum is preserved.
const truncatedSpan = "obs.truncated"

// bound clips tr to the span budget, folding dropped spans into one
// synthetic truncation span so totals still reconcile.
func bound(tr Trace) Trace {
	keep := len(tr.Spans)
	bytes := 0
	for i, s := range tr.Spans {
		bytes += len(s.Name) + spanOverhead
		// Reserve one slot for the synthetic span when clipping.
		if i >= MaxSpans-1 || bytes > MaxSpanBytes {
			keep = i
			break
		}
	}
	if keep >= len(tr.Spans) {
		return tr
	}
	var dropped int64
	for _, s := range tr.Spans[keep:] {
		dropped += s.Dur
	}
	spans := make([]Span, keep+1)
	copy(spans, tr.Spans[:keep])
	spans[keep] = Span{Name: truncatedSpan, Dur: dropped}
	tr.Spans = spans
	return tr
}

// NewID mints a process-unique, nonzero trace ID. IDs are a splitmix64
// hash of a per-process seed and an atomic sequence — unique without
// coordination and without the global math/rand source.
func (t *Tracer) NewID() uint64 {
	for {
		id := graph.Hash64(t.seed + t.nextID.Add(1))
		if id != 0 {
			return id
		}
	}
}

// Record stores one completed trace, clipped to the span budget.
func (t *Tracer) Record(tr Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr = bound(tr)
	if len(t.recent) < cap(t.recent) {
		t.recent = append(t.recent, tr)
	} else {
		t.recent[t.next] = tr
		t.next = (t.next + 1) % cap(t.recent)
		t.filled = true
	}
	// Insert into the worst-N capture (sorted descending by Total).
	if len(t.worst) < t.worstN || tr.Total > t.worst[len(t.worst)-1].Total {
		i := sort.Search(len(t.worst), func(i int) bool { return t.worst[i].Total < tr.Total })
		t.worst = append(t.worst, Trace{})
		copy(t.worst[i+1:], t.worst[i:])
		t.worst[i] = tr
		if len(t.worst) > t.worstN {
			t.worst = t.worst[:t.worstN]
		}
	}
}

// Recent returns the retained traces, oldest first.
func (t *Tracer) Recent() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.recent))
	if t.filled {
		out = append(out, t.recent[t.next:]...)
		out = append(out, t.recent[:t.next]...)
	} else {
		out = append(out, t.recent...)
	}
	return out
}

// Slowest returns the worst-N traces, slowest first.
func (t *Tracer) Slowest() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, len(t.worst))
	copy(out, t.worst)
	return out
}

// Find returns the most recently recorded trace with the given ID —
// how tests and ops probes retrieve a specific request's decomposition.
func (t *Tracer) Find(id uint64) (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Scan the ring newest-first so a reused ID resolves to the latest.
	n := len(t.recent)
	for i := 0; i < n; i++ {
		idx := i
		if t.filled {
			idx = ((t.next-1-i)%n + n) % n
		} else {
			idx = n - 1 - i
		}
		if t.recent[idx].ID == id {
			return t.recent[idx], true
		}
	}
	for _, tr := range t.worst {
		if tr.ID == id {
			return tr, true
		}
	}
	return Trace{}, false
}

var defaultTracer = NewTracer(0, 0)

// DefaultTracer returns the process-wide tracer the cmd/ binaries expose
// on their ops listener.
func DefaultTracer() *Tracer { return defaultTracer }
