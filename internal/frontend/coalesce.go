package frontend

import (
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/serving"
)

// combiner is one serving partition's sample path. Its window is two calls
// in flight per replica, each sent by its own caller as one helios.sample
// frame, a batch of one. A caller that finds the window full queues. A
// call that returns to a non-empty queue keeps its slot and hands it, with
// up to serving.MaxBatch queued members, to the oldest of them, which
// sends them as one frame. Nothing waits for batchmates: a batch is
// whatever queued while the window was full, so at low concurrency every
// sample goes direct.
//
// Deadlines: a member whose budget ran out while queued fails locally and
// sends no frame, and a batch travels under its members' minimum deadline.
// Every request gets the frontend's one RequestTimeout, so the calls ahead
// of a queued member expire no later than it does: it is never held past
// its own budget.
type combiner struct {
	f    *Frontend
	reps []*replica
	rr   atomic.Uint64 // replica round-robin cursor

	mu       sync.Mutex
	inflight int
	queue    []*pendingSample
}

// sampleOutcome is what a queued member receives: the batch it is to send
// when it is handed the slot, otherwise its share of a reply.
type sampleOutcome struct {
	lead []*pendingSample
	res  serving.Encoded
	err  error
}

// pendingSample is one queued request. done has capacity 1, and receives
// at most twice — the batch to lead, then the member's own outcome — each
// after the previous receive, so a sender never blocks.
type pendingSample struct {
	item     serving.BatchItem
	deadline time.Time
	done     chan sampleOutcome
}

// sample runs one request through the partition's window.
func (c *combiner) sample(qid query.ID, seed graph.VertexID, trace uint64, deadline time.Time) (serving.Encoded, error) {
	c.mu.Lock()
	if c.inflight < 2*len(c.reps) {
		c.inflight++
		c.mu.Unlock()
		results, err := c.call([]serving.BatchItem{{Query: qid, Seed: seed, Trace: trace}}, deadline)
		c.release()
		if err != nil {
			return nil, err
		}
		return results[0].Result, results[0].Err
	}
	ps := &pendingSample{
		item:     serving.BatchItem{Query: qid, Seed: seed, Trace: trace},
		deadline: deadline,
		done:     make(chan sampleOutcome, 1),
	}
	c.queue = append(c.queue, ps)
	c.mu.Unlock()
	out := <-ps.done
	if out.lead != nil {
		c.flush(out.lead)
		c.release()
		out = <-ps.done
	}
	return out.res, out.err
}

// release gives up a finished call's slot: to the oldest queued member,
// with up to serving.MaxBatch of the queue, or back to the window.
func (c *combiner) release() {
	c.mu.Lock()
	n := min(len(c.queue), serving.MaxBatch)
	if n == 0 {
		c.inflight--
		c.mu.Unlock()
		return
	}
	batch := c.queue[:n:n]
	c.queue = c.queue[n:]
	c.mu.Unlock()
	batch[0].done <- sampleOutcome{lead: batch}
}

// call sends items as one helios.sample frame under deadline, with
// replica failover.
func (c *combiner) call(items []serving.BatchItem, deadline time.Time) (results []serving.BatchResult, err error) {
	err = c.callReplica(deadline, func(cl *serving.Client, budget time.Duration) (err error) {
		results, err = cl.SampleBatch(items, budget)
		return err
	})
	return results, err
}

// flush sends one detached batch and fans the outcomes back out. Members
// whose deadline already passed fail locally; the live ones go as one
// helios.sample frame whose deadline is their minimum, the one deadline the
// worker serves them all under.
func (c *combiner) flush(batch []*pendingSample) {
	now := c.f.clk.Now()
	items := make([]serving.BatchItem, 0, len(batch))
	live := make([]*pendingSample, 0, len(batch))
	var batchDeadline time.Time
	for _, ps := range batch {
		if !ps.deadline.IsZero() {
			if !now.Before(ps.deadline) {
				c.f.DeadlineExceeded.Inc()
				ps.done <- sampleOutcome{err: rpc.ErrDeadlineExceeded}
				continue
			}
			if batchDeadline.IsZero() || ps.deadline.Before(batchDeadline) {
				batchDeadline = ps.deadline
			}
		}
		items = append(items, ps.item)
		live = append(live, ps)
	}
	if len(live) == 0 {
		return
	}
	results, err := c.call(items, batchDeadline)
	for i, ps := range live {
		// A whole-batch failure (transport, shed, size mismatch) is every
		// live member's.
		out := sampleOutcome{err: err}
		if err == nil {
			out = sampleOutcome{res: results[i].Result, err: results[i].Err}
		}
		ps.done <- out
	}
}
