package obs

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// traceOverhead approximates the fixed in-memory cost of one retained
// Trace (struct fields + slice header + op string).
const traceOverhead = 96

// approxBytes estimates the retained span-payload memory across the
// recent ring and worst-N capture — the quantity the memory-ceiling
// regression test pins.
func (t *Tracer) approxBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, set := range [2][]Trace{t.recent, t.worst} {
		for _, tr := range set {
			total += traceOverhead + len(tr.Op)
			for _, s := range tr.Spans {
				total += spanOverhead + len(s.Name)
			}
		}
	}
	return total
}

func TestTracerSpanBudgetTruncation(t *testing.T) {
	tr := NewTracer(4, 2)
	spans := make([]Span, MaxSpans+36) // span-count limited: short names

	var total int64
	for i := range spans {
		spans[i] = Span{Name: fmt.Sprintf("stage.%d", i), Dur: int64(i + 1)}
		total += int64(i + 1)
	}
	tr.Record(Trace{ID: 1, Op: "sample", Total: total, Spans: spans})
	got, ok := tr.Find(1)
	if !ok {
		t.Fatal("trace lost")
	}
	if len(got.Spans) != MaxSpans {
		t.Fatalf("retained %d spans, want %d (budget incl. truncation marker)", len(got.Spans), MaxSpans)
	}
	last := got.Spans[len(got.Spans)-1]
	if last.Name != "obs.truncated" {
		t.Fatalf("missing truncation marker: %+v", got.Spans)
	}
	if got.SpanSum() != total {
		t.Fatalf("SpanSum = %d, want %d (dropped time must fold into the marker)", got.SpanSum(), total)
	}

	// Byte-limited: long span names clip even under the span-count cap.
	tr2 := NewTracer(4, 2)
	long := strings.Repeat("x", MaxSpanBytes/2)
	tr2.Record(Trace{ID: 2, Total: 30, Spans: []Span{
		{Name: long, Dur: 10}, {Name: long, Dur: 10}, {Name: long, Dur: 10},
	}})
	got2, _ := tr2.Find(2)
	if n := len(got2.Spans); n >= 3 {
		t.Fatalf("byte budget kept %d spans", n)
	}
	if got2.SpanSum() != 30 {
		t.Fatalf("SpanSum = %d after byte clip", got2.SpanSum())
	}
}

func TestTracerMemoryCeilingUnderSustainedLoad(t *testing.T) {
	const ringCap, worstN = 64, 8
	tr := NewTracer(ringCap, worstN)
	// An adversarial workload: every trace arrives with far more span
	// payload than the budget and strictly increasing Total so each also
	// enters the worst-N capture.
	bigName := strings.Repeat("s", 512)
	for i := 0; i < 5000; i++ {
		spans := make([]Span, 256)
		for j := range spans {
			spans[j] = Span{Name: bigName, Dur: 1}
		}
		tr.Record(Trace{ID: uint64(i + 1), Op: "sample", Total: int64(i), Spans: spans})
	}
	// Retained memory must stay under (ring+worstN) traces × the span
	// budget plus per-trace overhead — not the 5000×256-span firehose.
	limit := (ringCap + worstN) * (MaxSpanBytes + MaxSpans*64 + 1024)
	if got := tr.approxBytes(); got > limit {
		t.Fatalf("retained %d bytes, ceiling %d", got, limit)
	}
	// The capture still works: the worst trace is findable and truncated.
	got, ok := tr.Find(5000)
	if !ok {
		t.Fatal("worst trace lost")
	}
	if len(got.Spans) > MaxSpans {
		t.Fatalf("retained %d spans, budget %d", len(got.Spans), MaxSpans)
	}
}

func TestTracerAndOpsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		tr := NewTracer(16, 4)
		tr.Record(Trace{ID: uint64(i + 1), Total: 1, Spans: []Span{{Name: "s", Dur: 1}}})
		srv, err := Serve("127.0.0.1:0", NewRegistry(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Give closed listeners' accept loops a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after tracer+ops churn", before, runtime.NumGoroutine())
}
