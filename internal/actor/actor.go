// Package actor provides the bounded-mailbox actor pools Helios workers are
// built from. The paper (§4.2, §4.3) isolates workload types — polling,
// sampling, publishing, cache updating, serving — onto distinct thread pools
// of a distributed actor framework so that bursts in one stage cannot starve
// another; pools here play that role, and the scale-up experiments
// (Fig. 13(a), Fig. 14(a)) vary their worker counts.
//
// Messages sent with the same key are handled by the same actor in FIFO
// order, which is how sampling workers serialize all updates touching one
// vertex without locks.
package actor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"helios/internal/graph"
	"helios/internal/obs"
)

// MaxRun bounds how many messages one actor turn takes from its mailbox.
// It is a constant, not a knob: the only batch it has to fit is the
// broker's append-batch bound (mq.MaxAppendBatch, 4096), and a turn this
// long already amortizes a per-turn cost to under half a percent per
// message.
const MaxRun = 256

// Pool is a fixed set of actors consuming bounded mailboxes.
type Pool[T any] struct {
	name      string
	mailboxes []chan T
	handler   func(worker int, msgs []T)
	busy      atomic.Int64
	wg        sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once

	// Handled counts processed messages; Panics counts recovered handler
	// panics (the actor keeps running, matching supervisor semantics).
	Handled obs.Counter
	Panics  obs.Counter
}

// NewBatchPool starts `workers` actors, each with a `mailbox`-deep queue.
// An actor's turn is a drained run: the message that woke it plus whatever
// was already waiting behind it, at most MaxRun, in mailbox order. The
// actor never waits for company, so a lone message is a run of one and is
// handled at once; under a burst the run is the natural batch. handler
// receives the worker index so actors can own per-worker state (e.g. a
// private RNG) without locks, and may reorder or overwrite msgs but must
// not retain it. A panic loses the rest of that run.
func NewBatchPool[T any](name string, workers, mailbox int, handler func(worker int, msgs []T)) *Pool[T] {
	p := newPool[T](name, workers, mailbox)
	p.handler = func(worker int, msgs []T) {
		defer p.recovered()
		handler(worker, msgs)
		p.Handled.Add(int64(len(msgs)))
	}
	p.start()
	return p
}

// NewPool is NewBatchPool for handlers that take one message at a time;
// a panic loses only the message that raised it.
func NewPool[T any](name string, workers, mailbox int, handler func(worker int, msg T)) *Pool[T] {
	p := newPool[T](name, workers, mailbox)
	one := func(worker int, msg T) {
		defer p.recovered()
		handler(worker, msg)
		p.Handled.Inc()
	}
	p.handler = func(worker int, msgs []T) {
		for i := range msgs {
			one(worker, msgs[i])
		}
	}
	p.start()
	return p
}

func newPool[T any](name string, workers, mailbox int) *Pool[T] {
	if workers < 1 {
		panic(fmt.Sprintf("actor: pool %q needs ≥ 1 worker", name))
	}
	if mailbox < 1 {
		mailbox = 1
	}
	p := &Pool[T]{name: name}
	p.mailboxes = make([]chan T, workers)
	for i := range p.mailboxes {
		p.mailboxes[i] = make(chan T, mailbox)
	}
	return p
}

func (p *Pool[T]) start() {
	p.wg.Add(len(p.mailboxes))
	for i := range p.mailboxes {
		go p.run(i)
	}
}

// recovered is deferred around handler calls: a panic is counted and
// contained.
func (p *Pool[T]) recovered() {
	if r := recover(); r != nil {
		p.Panics.Inc()
	}
}

// run is the one actor loop. Every message is counted into busy as it
// leaves the mailbox and out only when the run's handler has returned, so
// Depth never reads zero while a drained message is unhandled.
func (p *Pool[T]) run(worker int) {
	defer p.wg.Done()
	mb := p.mailboxes[worker]
	msgs := make([]T, 0, MaxRun)
	for msg := range mb {
		p.busy.Add(1)
		msgs = append(msgs, msg)
	drain:
		for len(msgs) < MaxRun {
			select {
			case msg, ok := <-mb:
				if !ok {
					break drain // closed: the outer range ends after this run
				}
				p.busy.Add(1)
				msgs = append(msgs, msg)
			default:
				break drain
			}
		}
		p.handler(worker, msgs)
		p.busy.Add(-int64(len(msgs)))
		clear(msgs) // drop references the next, shorter run would not overwrite
		msgs = msgs[:0]
	}
}

// Workers returns the actor count.
func (p *Pool[T]) Workers() int { return len(p.mailboxes) }

// Send enqueues msg to the actor owning key, blocking while that actor's
// mailbox is full (backpressure toward the producer, which is how a
// sampling worker's polling threads slow down under reservoir-table
// contention rather than dropping updates). Send panics if the pool is
// closed — producers must be stopped first, mirroring the shutdown order
// of the workers.
func (p *Pool[T]) Send(key uint64, msg T) {
	p.mailboxes[p.WorkerFor(key)] <- msg
}

// TrySend enqueues without blocking and reports success.
func (p *Pool[T]) TrySend(key uint64, msg T) bool {
	select {
	case p.mailboxes[p.WorkerFor(key)] <- msg:
		return true
	default:
		return false
	}
}

// WorkerFor returns the actor index owning key. Keys are hashed so raw
// sequential IDs spread evenly, and so external state sharded by the same
// hash (the sampling worker's shards) agrees with message routing.
func (p *Pool[T]) WorkerFor(key uint64) int {
	return int(graph.Hash64(key) % uint64(len(p.mailboxes)))
}

// SendTo enqueues to an explicit worker index.
func (p *Pool[T]) SendTo(worker int, msg T) {
	p.mailboxes[worker] <- msg
}

// Depth returns the queued plus in-flight messages — zero means the pool is
// fully idle, which the cluster quiescence probe relies on.
func (p *Pool[T]) Depth() int {
	total := int(p.busy.Load())
	for _, mb := range p.mailboxes {
		total += len(mb)
	}
	return total
}

// Close stops accepting messages, drains the mailboxes, and waits for the
// actors to finish. Safe to call multiple times.
func (p *Pool[T]) Close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		for _, mb := range p.mailboxes {
			close(mb)
		}
		p.wg.Wait()
	})
}

// Loop runs a set of identical polling goroutines until Stop — the shape of
// the paper's "polling threads continuously fetch the latest updates".
type Loop struct {
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewLoop starts n goroutines running fn(worker) repeatedly until Stop. fn
// returning false also terminates that goroutine (e.g. on broker close).
func NewLoop(n int, fn func(worker int) bool) *Loop {
	l := &Loop{stop: make(chan struct{})}
	l.wg.Add(n)
	for i := 0; i < n; i++ {
		go func(worker int) {
			defer l.wg.Done()
			for {
				select {
				case <-l.stop:
					return
				default:
				}
				if !fn(worker) {
					return
				}
			}
		}(i)
	}
	return l
}

// Stop signals the loops and waits for them to exit. fn must return
// promptly (poll with a bounded wait) for Stop to complete.
func (l *Loop) Stop() {
	l.once.Do(func() {
		close(l.stop)
		l.wg.Wait()
	})
}
