package frontend

import (
	"sync"
	"time"

	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/serving"
)

// SetBatching enables request coalescing: concurrent Sample/SampleTraced
// calls bound for the same serving partition are merged into one batched
// RPC. A batch is dispatched as soon as it reaches max members or when
// the oldest member has waited linger (whichever comes first), so an idle
// frontend adds at most linger to a lone request's latency. max <= 1
// disables coalescing; linger <= 0 defaults to 1ms. Call before serving
// traffic, alongside SetOverload — the batcher set is not swapped under
// load.
//
// Per-request trace IDs and deadline budgets ride inside the batch, and
// the batch RPC's own deadline is the MINIMUM of its members' deadlines:
// a short-deadline member must never have its wait extended by a
// longer-lived batchmate, and a member whose budget expires while
// coalescing fails locally without consuming a slot in the RPC.
func (f *Frontend) SetBatching(max int, linger time.Duration) {
	if max <= 1 {
		f.batchers = nil
		return
	}
	if linger <= 0 {
		linger = time.Millisecond
	}
	f.batchMax = max
	f.batchLinger = linger
	f.batchers = make([]*batcher, len(f.servers))
	for p := range f.batchers {
		f.batchers[p] = &batcher{f: f, part: p}
	}
}

// sampleOutcome is one member's share of a batch reply.
type sampleOutcome struct {
	res serving.Encoded
	err error
}

// pendingSample is one request waiting in a batcher. done has capacity 1
// so flushers never block on a receiver.
type pendingSample struct {
	item     serving.BatchItem
	deadline time.Time
	done     chan sampleOutcome
}

// batcher coalesces requests bound for one serving partition. The
// goroutine that fills the batch to batchMax flushes it inline; otherwise
// the linger timer armed by the first member fires the flush.
type batcher struct {
	f    *Frontend
	part int

	mu      sync.Mutex
	pending []*pendingSample
	timer   *time.Timer
}

// enqueue adds one request to the partition's pending batch and blocks
// until its outcome arrives.
func (b *batcher) enqueue(qid query.ID, seed graph.VertexID, trace uint64, deadline time.Time) (serving.Encoded, error) {
	ps := &pendingSample{
		item:     serving.BatchItem{Query: qid, Seed: seed, Trace: trace},
		deadline: deadline,
		done:     make(chan sampleOutcome, 1),
	}
	b.mu.Lock()
	b.pending = append(b.pending, ps)
	var batch []*pendingSample
	if len(b.pending) >= b.f.batchMax {
		batch = b.take()
	} else if len(b.pending) == 1 {
		// First member arms the linger timer; frontend deliberately uses
		// wall-clock timers (see the walltime lint exemption).
		b.timer = time.AfterFunc(b.f.batchLinger, b.flushTimer)
	}
	b.mu.Unlock()
	if batch != nil {
		b.flush(batch)
	}
	out := <-ps.done
	return out.res, out.err
}

// take detaches the pending batch and disarms the linger timer. Callers
// hold b.mu.
func (b *batcher) take() []*pendingSample {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

func (b *batcher) flushTimer() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// flush sends one detached batch as a single RPC and fans the per-member
// results back out. Members whose deadline already passed while
// coalescing fail locally; live members carry their remaining budget in
// the batch item, and the batch deadline is the minimum across members so
// nobody waits longer than their own budget allows.
func (b *batcher) flush(batch []*pendingSample) {
	now := b.f.clk.Now()
	items := make([]serving.BatchItem, 0, len(batch))
	live := make([]*pendingSample, 0, len(batch))
	var batchDeadline time.Time
	for _, ps := range batch {
		if !ps.deadline.IsZero() {
			budget := ps.deadline.Sub(now)
			if budget <= 0 {
				b.f.DeadlineExceeded.Inc()
				ps.done <- sampleOutcome{err: rpc.ErrDeadlineExceeded}
				continue
			}
			ps.item.Budget = budget.Nanoseconds()
			if batchDeadline.IsZero() || ps.deadline.Before(batchDeadline) {
				batchDeadline = ps.deadline
			}
		}
		items = append(items, ps.item)
		live = append(live, ps)
	}
	if len(items) == 0 {
		return
	}
	var results []serving.BatchResult
	err := b.f.callReplicaPart(b.part, batchDeadline, func(c *serving.Client, budget time.Duration) error {
		var err error
		results, err = c.SampleBatch(items, budget)
		return err
	})
	if err != nil {
		// Whole-batch failure (transport, shed, size mismatch): every live
		// member gets the same error.
		for _, ps := range live {
			ps.done <- sampleOutcome{err: err}
		}
		return
	}
	for i, ps := range live {
		ps.done <- sampleOutcome{res: results[i].Result, err: results[i].Err}
	}
}
