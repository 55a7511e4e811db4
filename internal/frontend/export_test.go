package frontend

import (
	"time"

	"helios/internal/graph"
	"helios/internal/serving"
)

// White-box hooks for the external test package, which boots deployments
// through internal/cluster (and so cannot live inside this package).

// AdmissionDepth reports the sample limiter's queued and in-flight counts.
func (f *Frontend) AdmissionDepth() (queued, inflight int64) {
	return f.limiter.Queued(), f.limiter.Inflight()
}

// SampleCalls sums the issued-call counters of every serving replica's
// client — the RPC-frame count the work-ledger and combining assertions
// key on.
func (f *Frontend) SampleCalls() int64 {
	var n int64
	for _, c := range f.combiners {
		for _, rep := range c.reps {
			n += rep.client.RPC().Calls.Value()
		}
	}
	return n
}

// QueuedSamples reports how many requests wait in partition p's combiner.
func (f *Frontend) QueuedSamples(p int) int {
	c := f.combiners[p]
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// FlushBatch hands partition 0's combiner one detached batch whose member
// i asks for seed i+1 with a deadline offsets[i] from now, and returns each
// member's error once all have their outcome.
func (f *Frontend) FlushBatch(offsets ...time.Duration) []error {
	now := f.clk.Now()
	batch := make([]*pendingSample, len(offsets))
	for i, d := range offsets {
		batch[i] = &pendingSample{
			item:     serving.BatchItem{Query: 0, Seed: graph.VertexID(i + 1)},
			deadline: now.Add(d),
			done:     make(chan sampleOutcome, 1),
		}
	}
	f.combiners[0].flush(batch)
	errs := make([]error, len(batch))
	for i, ps := range batch {
		errs[i] = (<-ps.done).err
	}
	return errs
}
