package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"helios/internal/clock"
)

// numBuckets covers 1ns .. ~585 years at 16 buckets per power of two.
const (
	bucketsPerPow2 = 16
	numBuckets     = 64 * bucketsPerPow2
)

// Histogram records int64 samples (typically latencies in nanoseconds)
// into logarithmic buckets (~4.6% relative error per bucket), so an
// observation is a handful of atomic adds and never contends. Alongside
// the counts each bucket can remember the most recent *traced* observation
// that landed in it — its trace ID, exact value and timestamp. That is the
// join key of the tail-attribution story: /metrics says p99 moved, the p99
// bucket's exemplar names a trace ID, and /traces resolves that ID to a
// per-stage span breakdown.
//
// The zero value is ready to use and all methods are safe for concurrent
// use. Untraced observations with no SLO attached never read the clock,
// and the exemplar table is only allocated by the first traced one, so a
// histogram that is never traced costs its bucket counters and nothing
// more.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
	// clk stamps exemplars and SLO windows. Stored via atomic.Value so
	// WithClock can race a concurrent Observe (registries are shared).
	clk       atomic.Value // clock.Clock
	slo       atomic.Pointer[SLO]
	exemplars atomic.Pointer[[numBuckets]atomic.Pointer[exemplarRec]]
}

// exemplarRec is the per-bucket exemplar cell. A whole-struct pointer swap
// keeps the three fields consistent without a lock.
type exemplarRec struct {
	trace uint64
	value int64
	ts    int64
}

// bucketOf maps a sample to its bucket index: position within [2^e, 2^(e+1))
// subdivided into bucketsPerPow2 slots. Shift-based to avoid overflow at the
// top of the int64 range.
func bucketOf(v int64) int {
	if v < 1 {
		v = 1
	}
	e := 63 - bits.LeadingZeros64(uint64(v))
	rem := v - (1 << uint(e))
	var frac int64
	switch {
	case e > 4:
		frac = rem >> uint(e-4)
	case e > 0:
		frac = rem << uint(4-e)
	}
	idx := e*bucketsPerPow2 + int(frac)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketUpper returns the representative (upper bound) value of bucket
// idx, saturating at math.MaxInt64 for the overflow bucket.
func bucketUpper(idx int) int64 {
	e := idx / bucketsPerPow2
	frac := idx % bucketsPerPow2
	base := int64(1) << uint(e)
	step := base / bucketsPerPow2
	if step == 0 {
		step = 1
	}
	u := base + step*int64(frac+1)
	if u < base { // overflow at the top of the int64 range
		return math.MaxInt64
	}
	return u
}

// WithClock sets the clock used to timestamp exemplars and rotate SLO
// windows, returning h for chaining. Tests inject a fake so exemplar
// replacement is deterministic.
func (h *Histogram) WithClock(clk clock.Clock) *Histogram {
	if clk != nil {
		h.clk.Store(clk)
	}
	return h
}

func (h *Histogram) now() int64 {
	if c, ok := h.clk.Load().(clock.Clock); ok {
		return c.Now().UnixNano()
	}
	return time.Now().UnixNano()
}

// AttachSLO routes every observation (traced or not) into s's rolling
// good/bad accounting, so one Observe on the hot path feeds both the
// histogram and the burn-rate math. A histogram feeds one objective:
// attaching another replaces it, so re-targeting never double-counts.
func (h *Histogram) AttachSLO(s *SLO) { h.slo.Store(s) }

// Observe records one sample (negative samples count as 0). A nonzero
// trace installs the sample as the exemplar of its bucket, replacing
// whatever traced sample landed there before (latest-wins).
func (h *Histogram) Observe(v int64, trace uint64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	idx := bucketOf(v)
	h.buckets[idx].Add(1)
	slo := h.slo.Load()
	if trace == 0 && slo == nil {
		return
	}
	now := h.now()
	if slo != nil {
		slo.observe(v, now)
	}
	if trace != 0 {
		ex := h.exemplars.Load()
		if ex == nil {
			h.exemplars.CompareAndSwap(nil, new([numBuckets]atomic.Pointer[exemplarRec]))
			ex = h.exemplars.Load()
		}
		ex[idx].Store(&exemplarRec{trace: trace, value: v, ts: now})
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1), with the
// histogram's ~4.6% relative bucket error.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(math.Min(math.Max(q, 0), 1) * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return min(bucketUpper(i), h.max.Load())
		}
	}
	return h.max.Load()
}

// Exemplar is one traced observation pinned to a histogram bucket, in the
// shape served by /metrics?format=json.
type Exemplar struct {
	// Trace is the hex trace ID — the key to look up on /traces.
	Trace string `json:"trace"`
	// Value is the exact observed sample in nanoseconds.
	Value int64 `json:"value_ns"`
	// TS is when the sample was observed (clock nanoseconds).
	TS int64 `json:"ts_ns"`
	// LE is the upper bound of the bucket the sample landed in.
	LE int64 `json:"le_ns"`
}

// exemplarAt returns bucket idx's exemplar, if one is held.
func (h *Histogram) exemplarAt(idx int) (Exemplar, bool) {
	ex := h.exemplars.Load()
	if ex == nil || idx < 0 || idx >= numBuckets {
		return Exemplar{}, false
	}
	rec := ex[idx].Load()
	if rec == nil {
		return Exemplar{}, false
	}
	return Exemplar{Trace: TraceHex(rec.trace), Value: rec.value, TS: rec.ts, LE: bucketUpper(idx)}, true
}

// ExemplarNear returns the exemplar of the bucket closest to the
// q-quantile (searching outward from the quantile's bucket), so callers
// can ask "which trace looked like the p99" even when the exact p99
// bucket holds no traced sample.
func (h *Histogram) ExemplarNear(q float64) (Exemplar, bool) {
	if h.Count() == 0 || h.exemplars.Load() == nil {
		return Exemplar{}, false
	}
	at := bucketOf(h.Quantile(q))
	for d := 0; d < numBuckets; d++ {
		for _, idx := range [2]int{at - d, at + d} {
			if ex, ok := h.exemplarAt(idx); ok {
				return ex, true
			}
		}
	}
	return Exemplar{}, false
}

// HistSnapshot is a point-in-time summary of a histogram: tail quantiles
// through p999 plus every bucket exemplar currently held.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
	// P99Exemplar is the hex trace ID of the exemplar nearest the p99
	// bucket — the one-hop link from a tail quantile to /traces.
	P99Exemplar string `json:"p99_exemplar,omitempty"`
	// Exemplars lists the held bucket exemplars in ascending bucket order.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot summarizes the histogram and its exemplars.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
	if h.exemplars.Load() != nil {
		for idx := 0; idx < numBuckets; idx++ {
			if ex, ok := h.exemplarAt(idx); ok {
				s.Exemplars = append(s.Exemplars, ex)
			}
		}
		if ex, ok := h.ExemplarNear(0.99); ok {
			s.P99Exemplar = ex.Trace
		}
	}
	return s
}

// String renders the snapshot in milliseconds, the unit of every latency
// figure in the paper.
func (s HistSnapshot) String() string {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms",
		s.Count, s.Mean/1e6, ms(s.P50), ms(s.P90), ms(s.P99), ms(s.Max))
}
