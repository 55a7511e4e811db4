package actor

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolProcessesAll(t *testing.T) {
	var sum atomic.Int64
	p := NewPool("test", 4, 16, func(_ int, msg int64) {
		sum.Add(msg)
	})
	for i := int64(1); i <= 1000; i++ {
		p.Send(uint64(i), i)
	}
	p.Close()
	if sum.Load() != 1000*1001/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if p.Handled.Value() != 1000 {
		t.Fatalf("handled = %d", p.Handled.Value())
	}
	if p.Workers() != 4 {
		t.Fatal("workers wrong")
	}
}

func TestPoolKeyOrdering(t *testing.T) {
	// Messages with the same key must be handled in send order.
	const perKey = 500
	var mu sync.Mutex
	got := map[uint64][]int{}
	p := NewPool("order", 8, 4, func(_ int, msg [2]int) {
		mu.Lock()
		got[uint64(msg[0])] = append(got[uint64(msg[0])], msg[1])
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for key := 0; key < 4; key++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				p.Send(uint64(k), [2]int{k, i})
			}
		}(key)
	}
	wg.Wait()
	p.Close()
	for key, seq := range got {
		if len(seq) != perKey {
			t.Fatalf("key %d: %d messages", key, len(seq))
		}
		for i, v := range seq {
			if v != i {
				t.Fatalf("key %d out of order at %d: %d", key, i, v)
			}
		}
	}
}

func TestPoolSameKeySameWorker(t *testing.T) {
	var mu sync.Mutex
	workers := map[uint64]map[int]bool{}
	p := NewPool("affinity", 7, 8, func(w int, key uint64) {
		mu.Lock()
		if workers[key] == nil {
			workers[key] = map[int]bool{}
		}
		workers[key][w] = true
		mu.Unlock()
	})
	for i := 0; i < 2000; i++ {
		key := uint64(i % 13)
		p.Send(key, key)
	}
	p.Close()
	for key, ws := range workers {
		if len(ws) != 1 {
			t.Fatalf("key %d handled by %d workers", key, len(ws))
		}
	}
}

func TestPoolPanicRecovery(t *testing.T) {
	var handled atomic.Int64
	p := NewPool("panicky", 1, 4, func(_ int, msg int) {
		if msg == 13 {
			panic("unlucky")
		}
		handled.Add(1)
	})
	for i := 0; i < 20; i++ {
		p.Send(0, i)
	}
	p.Close()
	if p.Panics.Value() != 1 {
		t.Fatalf("panics = %d", p.Panics.Value())
	}
	if handled.Load() != 19 {
		t.Fatalf("handled = %d (actor should survive a panic)", handled.Load())
	}
}

func TestTrySend(t *testing.T) {
	block := make(chan struct{})
	p := NewPool("full", 1, 1, func(_ int, _ int) {
		<-block
	})
	p.Send(0, 1) // picked up by the actor, which blocks
	time.Sleep(10 * time.Millisecond)
	p.Send(0, 2) // fills the mailbox
	if p.TrySend(0, 3) {
		t.Fatal("TrySend should fail on a full mailbox")
	}
	// One message queued plus one in flight (blocked in the handler).
	if p.Depth() != 2 {
		t.Fatalf("depth = %d", p.Depth())
	}
	close(block)
	p.Close()
}

func TestSendTo(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	p := NewPool("direct", 3, 4, func(w int, _ struct{}) {
		mu.Lock()
		seen[w]++
		mu.Unlock()
	})
	for i := 0; i < 9; i++ {
		p.SendTo(i%3, struct{}{})
	}
	p.Close()
	for w := 0; w < 3; w++ {
		if seen[w] != 3 {
			t.Fatalf("worker %d handled %d", w, seen[w])
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool("idem", 2, 2, func(_ int, _ int) {})
	p.Close()
	p.Close() // must not panic
}

func TestNewPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero workers should panic")
		}
	}()
	NewPool("bad", 0, 1, func(_ int, _ int) {})
}

func TestLoop(t *testing.T) {
	var ticks atomic.Int64
	l := NewLoop(3, func(_ int) bool {
		ticks.Add(1)
		time.Sleep(time.Millisecond)
		return true
	})
	time.Sleep(30 * time.Millisecond)
	l.Stop()
	after := ticks.Load()
	if after == 0 {
		t.Fatal("loop never ran")
	}
	time.Sleep(20 * time.Millisecond)
	if ticks.Load() != after {
		t.Fatal("loop kept running after Stop")
	}
	l.Stop() // idempotent
}

func TestLoopSelfTermination(t *testing.T) {
	var ran atomic.Int64
	l := NewLoop(1, func(_ int) bool {
		ran.Add(1)
		return false
	})
	time.Sleep(10 * time.Millisecond)
	if ran.Load() != 1 {
		t.Fatalf("ran = %d, want exactly 1", ran.Load())
	}
	l.Stop()
}

func BenchmarkPoolSend(b *testing.B) {
	p := NewPool("bench", 8, 1024, func(_ int, _ uint64) {})
	defer p.Close()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var key uint64
		for pb.Next() {
			p.Send(key, key)
			key++
		}
	})
}

// gate is a batch handler that parks its first run until released, so a
// test can queue a known backlog behind it.
type gate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) wait() {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

func TestBatchPoolKeyOrderAcrossRuns(t *testing.T) {
	// Per-key FIFO must hold inside a run and from one run to the next,
	// with several producers filling the mailboxes while the actors drain.
	const keys, perKey = 6, 3000
	var mu sync.Mutex
	got := map[int][]int{}
	runs := 0
	p := NewBatchPool("order", 3, 64, func(_ int, msgs [][2]int) {
		mu.Lock()
		runs++
		for _, m := range msgs {
			got[m[0]] = append(got[m[0]], m[1])
		}
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				p.Send(uint64(k), [2]int{k, i})
			}
		}(k)
	}
	wg.Wait()
	p.Close()
	for k := 0; k < keys; k++ {
		if len(got[k]) != perKey {
			t.Fatalf("key %d: %d messages, want %d", k, len(got[k]), perKey)
		}
		for i, v := range got[k] {
			if v != i {
				t.Fatalf("key %d out of order at %d: %d", k, i, v)
			}
		}
	}
	if p.Handled.Value() != keys*perKey {
		t.Fatalf("handled = %d", p.Handled.Value())
	}
	if runs >= keys*perKey {
		t.Fatalf("%d runs for %d messages: nothing was ever drained together", runs, keys*perKey)
	}
}

func TestBatchPoolDrainCappedAndDepthExact(t *testing.T) {
	// 2*MaxRun+10 messages wait behind a parked first run of one: the
	// actor must take them as MaxRun, MaxRun, 10 — never more than the cap
	// — and Depth must count a run until its handler returns.
	const backlog = 2*MaxRun + 10
	g := newGate()
	var sizes []int
	inHandler := make(chan int)
	var p *Pool[int]
	p = NewBatchPool("cap", 1, backlog, func(_ int, msgs []int) {
		g.wait()
		sizes = append(sizes, len(msgs))
		if len(msgs) == MaxRun && len(sizes) == 2 {
			inHandler <- p.Depth() // the mailbox holds MaxRun+10, this run MaxRun
		}
	})
	p.Send(0, -1)
	<-g.entered
	for i := 0; i < backlog; i++ {
		p.Send(0, i)
	}
	if d := p.Depth(); d != backlog+1 {
		t.Fatalf("depth with the first run parked = %d, want %d", d, backlog+1)
	}
	close(g.release)
	if d := <-inHandler; d != backlog {
		t.Fatalf("depth inside the first full run's handler = %d, want %d", d, backlog)
	}
	p.Close()
	if want := []int{1, MaxRun, MaxRun, 10}; !slices.Equal(sizes, want) {
		t.Fatalf("run sizes %v, want %v", sizes, want)
	}
	if d := p.Depth(); d != 0 {
		t.Fatalf("depth after close = %d", d)
	}
}

func TestBatchPoolLoneMessageNotHeld(t *testing.T) {
	// No linger: a single message is a run of one, handled with nothing
	// else ever arriving.
	got := make(chan []int, 1)
	p := NewBatchPool("lone", 1, 8, func(_ int, msgs []int) {
		got <- append([]int(nil), msgs...)
	})
	defer p.Close()
	p.Send(0, 7)
	select {
	case run := <-got:
		if len(run) != 1 || run[0] != 7 {
			t.Fatalf("run = %v, want [7]", run)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lone message was never handled: the actor is waiting for company")
	}
}

func TestBatchPoolCloseDrains(t *testing.T) {
	g := newGate()
	var handled atomic.Int64
	p := NewBatchPool("close", 1, 1024, func(_ int, msgs []int) {
		g.wait()
		handled.Add(int64(len(msgs)))
	})
	p.Send(0, 0)
	<-g.entered
	for i := 1; i < 700; i++ {
		p.Send(0, i)
	}
	close(g.release)
	p.Close() // returns only once every queued message has been handled
	if handled.Load() != 700 {
		t.Fatalf("handled %d of 700 before Close returned", handled.Load())
	}
}

func TestPoolPanicSparesBatchmates(t *testing.T) {
	// The per-message adapter recovers around each message, so a panic in
	// the middle of a drained run loses that message alone.
	g := newGate()
	var seen []int
	p := NewPool("spare", 1, 16, func(_ int, msg int) {
		g.wait()
		if msg == 3 {
			panic("unlucky")
		}
		seen = append(seen, msg)
	})
	p.Send(0, 0)
	<-g.entered
	for i := 1; i <= 6; i++ {
		p.Send(0, i) // one run: all six are queued before the gate opens
	}
	close(g.release)
	p.Close()
	if want := []int{0, 1, 2, 4, 5, 6}; !slices.Equal(seen, want) {
		t.Fatalf("handled %v, want %v", seen, want)
	}
	if p.Panics.Value() != 1 || p.Handled.Value() != 6 {
		t.Fatalf("panics %d handled %d, want 1 and 6", p.Panics.Value(), p.Handled.Value())
	}
}

func TestBatchPoolPanicContained(t *testing.T) {
	// A batch handler's panic costs that run; the actor survives it.
	var handled atomic.Int64
	p := NewBatchPool("panicky", 1, 4, func(_ int, msgs []int) {
		if msgs[0] == 0 {
			panic("first run")
		}
		handled.Add(int64(len(msgs)))
	})
	p.Send(0, 0)
	for p.Panics.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	p.Send(0, 1)
	p.Close()
	if handled.Load() != 1 || p.Handled.Value() != 1 {
		t.Fatalf("handled %d / %d after a panicked run, want 1", handled.Load(), p.Handled.Value())
	}
}
