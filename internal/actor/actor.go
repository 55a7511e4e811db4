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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/graph"
	"helios/internal/obs"
)

// MaxRun bounds how many messages one actor turn takes from its mailbox.
// It is a constant, not a knob: the only batch it has to fit is the
// broker's append-batch bound (mq.MaxAppendBatch, 4096), and a turn this
// long already amortizes a per-turn cost to under half a percent per
// message.
const MaxRun = 256

// idleCap is the size each of an actor's two buffers — its queue and its
// spent run — starts at, and a parked actor keeps at most 2*idleCap
// messages of them. Runs that fit reuse them without allocating; a backlog
// grows the queue, and the actor lets the growth go when it parks, so an
// idle pool holds almost nothing.
const idleCap = 16

// Pool is a fixed set of actors consuming bounded mailboxes.
type Pool[T any] struct {
	mailboxes []mailbox[T]
	handler   func(worker int, msgs []T)
	depth     atomic.Int64 // queued plus in-flight messages
	wg        sync.WaitGroup
	closeOnce sync.Once

	// Handled counts processed messages; Panics counts recovered handler
	// panics (the actor keeps running, matching supervisor semantics).
	Handled obs.Counter
	Panics  obs.Counter
}

// mailbox is one actor's queue: a slice that grows with what is queued, up
// to limit. The actor takes a run by swapping it with its spent run buffer.
type mailbox[T any] struct {
	mu     sync.Mutex
	queued []T
	limit  int
	closed bool
	parked bool      // the actor waits on wake with nothing queued
	space  sync.Cond // broadcast when a run frees room or the pool closes
	// wake rings the parked actor: the close, or a run a sender handed it.
	// handed and spent (its emptied last run, the next queue) are the
	// actor's; a sender touches them only while the actor is parked.
	wake   chan struct{}
	handed []T
	spent  []T
}

// NewBatchPool starts `workers` actors, each with a `mailbox`-deep queue.
// An actor's turn is a drained run: everything queued when it takes the
// turn, at most MaxRun, in mailbox order. The actor never waits for
// company, so a lone message is a run of one and is handled at once; under
// a burst the run is the natural batch. handler receives the worker index
// so actors can own per-worker state (e.g. a private RNG) without locks,
// and may reorder or overwrite msgs but must not retain it. A panic loses
// the rest of that run.
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

func newPool[T any](name string, workers, depth int) *Pool[T] {
	if workers < 1 {
		panic(fmt.Sprintf("actor: pool %q needs ≥ 1 worker", name))
	}
	p := &Pool[T]{mailboxes: make([]mailbox[T], workers)}
	for i := range p.mailboxes {
		mb := &p.mailboxes[i]
		mb.limit = max(depth, 1)
		mb.space.L = &mb.mu
		mb.wake = make(chan struct{}, 1)
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

// run is the one actor loop. A message is counted into depth as it is
// queued and out only when its run's handler has returned, so Depth never
// reads zero while a message is unhandled.
func (p *Pool[T]) run(worker int) {
	defer p.wg.Done()
	mb := &p.mailboxes[worker]
	for run := mb.take(); run != nil; run = mb.take() {
		p.handler(worker, run)
		p.depth.Add(-int64(len(run)))
		clear(run) // drop references the queue would keep past its length
		mb.spent = run[:0]
	}
}

// take returns the next run: the queue, swapped for the spent run buffer,
// or its oldest MaxRun messages. With nothing queued the actor yields once
// and then parks until handed a run; nil means closed and drained.
func (mb *mailbox[T]) take() []T {
	mb.mu.Lock()
	for yielded := false; len(mb.queued) == 0; yielded = true {
		if mb.closed {
			mb.mu.Unlock()
			return nil
		}
		if !yielded { // a producer runnable here may refill the queue: no wake-up
			mb.mu.Unlock()
			runtime.Gosched()
			mb.mu.Lock()
			continue
		}
		if cap(mb.queued)+cap(mb.spent) > 2*idleCap {
			mb.queued, mb.spent = nil, nil
		}
		mb.parked = true
		mb.mu.Unlock()
		<-mb.wake
		if run := mb.handed; run != nil {
			mb.handed = nil
			return run
		}
		mb.mu.Lock()
	}
	run, rest := mb.queued, mb.spent
	if len(run) > MaxRun {
		rest = append(rest, run[MaxRun:]...)
		clear(run[MaxRun:])
		run = run[:MaxRun]
	}
	mb.queued, mb.spent = rest, nil
	mb.mu.Unlock()
	mb.space.Broadcast()
	return run
}

// put queues msg, waiting while the queue is full, and hands it to the
// actor if the actor is parked. It panics once the pool is closed.
func (mb *mailbox[T]) put(msg T, depth *atomic.Int64) {
	mb.mu.Lock()
	for len(mb.queued) >= mb.limit && !mb.closed {
		mb.space.Wait()
	}
	if mb.closed {
		mb.mu.Unlock()
		panic("actor: send to a closed pool")
	}
	if len(mb.queued) == cap(mb.queued) {
		mb.queued = append(make([]T, 0, min(max(2*cap(mb.queued), idleCap), mb.limit)), mb.queued...)
	}
	mb.queued = append(mb.queued, msg)
	depth.Add(1)
	wake := mb.parked
	if wake { // the actor starts the run it is handed without the lock
		mb.parked, mb.handed, mb.queued, mb.spent = false, mb.queued, mb.spent, nil
	}
	mb.mu.Unlock()
	if wake {
		mb.wake <- struct{}{}
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
	p.mailboxes[p.WorkerFor(key)].put(msg, &p.depth)
}

// WorkerFor returns the actor index owning key. Keys are hashed so raw
// sequential IDs spread evenly, and so external state sharded by the same
// hash (the sampling worker's shards) agrees with message routing.
func (p *Pool[T]) WorkerFor(key uint64) int {
	return int(graph.Hash64(key) % uint64(len(p.mailboxes)))
}

// SendTo enqueues to an explicit worker index.
func (p *Pool[T]) SendTo(worker int, msg T) {
	p.mailboxes[worker].put(msg, &p.depth)
}

// Depth returns the queued plus in-flight messages — zero means the pool is
// fully idle, which the cluster quiescence probe relies on.
func (p *Pool[T]) Depth() int { return int(p.depth.Load()) }

// Close stops accepting messages, drains the mailboxes, and waits for the
// actors to finish. Safe to call multiple times.
func (p *Pool[T]) Close() {
	p.closeOnce.Do(func() {
		for i := range p.mailboxes {
			mb := &p.mailboxes[i]
			mb.mu.Lock()
			wake := mb.parked
			mb.closed, mb.parked = true, false
			mb.mu.Unlock()
			if wake {
				mb.wake <- struct{}{}
			}
			mb.space.Broadcast()
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

// NewLoop starts n goroutines running fn(worker, stop) repeatedly until Stop
// closes stop; fn passes stop to every pause (Sleep), so Stop ends a pause
// rather than waiting it out. fn returning false ends its goroutine too.
func NewLoop(n int, fn func(worker int, stop <-chan struct{}) bool) *Loop {
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
				if !fn(worker, l.stop) {
					return
				}
			}
		}(i)
	}
	return l
}

// Every calls fn each interval on its own goroutine until Stop; fn never
// runs after Stop returns. A non-positive interval starts nothing and
// returns nil, whose Stop is a no-op.
func Every(interval time.Duration, fn func()) *Loop {
	if interval <= 0 {
		return nil
	}
	return NewLoop(1, func(_ int, stop <-chan struct{}) bool {
		if Sleep(stop, interval) {
			fn()
		}
		return true
	})
}

// Sleep is a loop's one pause: it waits d, or until stop closes, and
// reports whether the whole d passed.
func Sleep(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// Stop signals the loops, ending any Sleep they are in, and waits for them
// to exit.
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.once.Do(func() {
		close(l.stop)
		l.wg.Wait()
	})
}
