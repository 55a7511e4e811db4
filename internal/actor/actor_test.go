package actor

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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

func TestSendBlocksOnFullMailbox(t *testing.T) {
	// A depth-1 mailbox behind a parked handler: one message in flight, one
	// queued, and the next Send waits until the actor takes its run.
	g := newGate()
	var order []int
	p := NewPool("full", 1, 1, func(_ int, msg int) {
		g.wait()
		order = append(order, msg)
	})
	p.Send(0, 1)
	<-g.entered
	p.Send(0, 2)
	if d := p.Depth(); d != 2 {
		t.Fatalf("depth = %d, want the queued message and the one in flight", d)
	}
	sent := make(chan struct{})
	go func() {
		p.Send(0, 3)
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("Send returned while the mailbox was full")
	case <-time.After(50 * time.Millisecond):
	}
	if d := p.Depth(); d != 2 {
		t.Fatalf("depth with a sender blocked = %d, want 2", d)
	}
	close(g.release)
	<-sent
	p.Close()
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Fatalf("handled %v, want [1 2 3]", order)
	}
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

// wide is a message the size of the sampler's event (176 B), the largest
// the pipeline's pools carry.
type wide [22]uint64

// liveHeap returns the heap in use after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestIdleMailboxBytes is the ledger row for what an idle pool holds: 8
// actors at depth 1 024 drain a 10 000-message burst and park. Each may
// keep 2*idleCap messages of buffer; 64 KiB covers the pool itself.
func TestIdleMailboxBytes(t *testing.T) {
	const workers, depth, burst = 8, 1024, 10_000
	base := liveHeap()
	p := NewBatchPool("idle", workers, depth, func(_ int, _ []wide) {})
	for i := 0; i < burst; i++ {
		p.Send(uint64(i), wide{})
	}
	limit := int64(workers*2*idleCap)*int64(unsafe.Sizeof(wide{})) + 64<<10
	held := liveHeap() - base
	// An actor lets go of its buffers when it parks, which may come a
	// moment after its last run.
	for deadline := time.Now().Add(5 * time.Second); held > limit && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		held = liveHeap() - base
	}
	t.Logf("an idle pool of %d actors holds %d B after a %d-message burst (limit %d B)", workers, held, burst, limit)
	if held > limit {
		t.Fatalf("idle pool holds %d B, want ≤ %d B", held, limit)
	}
	runtime.KeepAlive(p)
	p.Close()
}

// TestSendHandleAllocatesNothing: once an actor's two buffers exist, a
// cycle whose runs fit them allocates nothing, so an actor that parks
// between small bursts does not regrow what it let go.
func TestSendHandleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	done := make(chan struct{})
	left := idleCap
	p := NewPool("cycle", 1, 1024, func(_ int, _ wide) {
		if left--; left == 0 {
			left = idleCap
			done <- struct{}{}
		}
	})
	defer p.Close()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < idleCap; i++ {
			p.Send(0, wide{})
		}
		<-done
	})
	t.Logf("%.3f allocations per %d-message cycle", allocs, idleCap)
	if allocs != 0 {
		t.Fatalf("%.3f allocations per cycle, want 0", allocs)
	}
}

// TestPoolModel drives seeded random pools — depths 1 to 64, several
// senders on shared keys and explicit workers, handlers that stall at
// random — and checks the mailbox contract: every message handled exactly
// once, per-sender FIFO per key across runs, no run longer than the depth
// or MaxRun, Depth never below what is sent and not yet handled, and 0
// after Close.
func TestPoolModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers, depth, senders := 1+rng.Intn(4), 1+rng.Intn(64), 1+rng.Intn(4)
		perSender := 200 + rng.Intn(800)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			modelRun(t, seed, workers, depth, senders, perSender)
		})
	}
}

// modelMsg is one message of the model test: the sender, the stream it
// belongs to (a key, or an explicit worker when direct), and its place in
// that stream.
type modelMsg struct {
	sender, stream, seq int
	direct              bool
}

func modelRun(t *testing.T, seed int64, workers, depth, senders, perSender int) {
	const streams = 6
	limit := min(depth, MaxRun)
	var (
		mu      sync.Mutex
		next    = map[[3]int]int{} // (sender, stream, direct) → next seq
		sent    atomic.Int64
		handled atomic.Int64
	)
	stall := make([]*rand.Rand, workers) // one per actor: no sharing
	for w := range stall {
		stall[w] = rand.New(rand.NewSource(seed*100 + int64(w)))
	}
	p := NewBatchPool("model", workers, depth, func(w int, msgs []modelMsg) {
		if len(msgs) > limit {
			t.Errorf("run of %d messages, limit %d", len(msgs), limit)
		}
		mu.Lock()
		for _, m := range msgs {
			k := [3]int{m.sender, m.stream, 0}
			if m.direct {
				k[2] = 1
			}
			if m.seq != next[k] {
				t.Errorf("sender %d stream %v: seq %d, want %d", m.sender, k, m.seq, next[k])
			}
			next[k] = m.seq + 1
		}
		mu.Unlock()
		switch r := stall[w].Intn(20); {
		case r == 0:
			time.Sleep(time.Duration(stall[w].Intn(300)) * time.Microsecond)
		case r < 4:
			runtime.Gosched()
		}
		handled.Add(int64(len(msgs)))
	})

	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() { // Depth never reads below sent-and-unhandled
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := sent.Load()
			d := p.Depth()
			h := handled.Load()
			if int64(d) < s-h {
				t.Errorf("Depth %d with at least %d messages sent and unhandled", d, s-h)
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(s)))
			seqs := map[[2]int]int{}
			for i := 0; i < perSender; i++ {
				m := modelMsg{sender: s, stream: rng.Intn(streams), direct: rng.Intn(4) == 0}
				if m.direct {
					m.stream %= workers
				}
				k := [2]int{m.stream, 0}
				if m.direct {
					k[1] = 1
				}
				m.seq = seqs[k]
				seqs[k]++
				if m.direct {
					p.SendTo(m.stream, m)
				} else {
					p.Send(uint64(m.stream), m)
				}
				sent.Add(1)
			}
		}(s)
	}
	wg.Wait()
	p.Close()
	close(stop)
	<-watched
	if want := int64(senders * perSender); handled.Load() != want || p.Handled.Value() != want {
		t.Fatalf("handled %d (counter %d) of %d", handled.Load(), p.Handled.Value(), want)
	}
	total := 0
	for _, n := range next {
		total += n
	}
	if total != senders*perSender {
		t.Fatalf("streams account for %d of %d messages", total, senders*perSender)
	}
	if d := p.Depth(); d != 0 {
		t.Fatalf("depth after close = %d", d)
	}
}

// BenchmarkPoolLone is the hand-off of a message to a parked actor and
// back: one Send, then wait until it is handled.
func BenchmarkPoolLone(b *testing.B) {
	done := make(chan struct{})
	p := NewPool("lone", 1, 1024, func(_ int, _ wide) { done <- struct{}{} })
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(0, wide{})
		<-done
	}
}

// BenchmarkPoolBurst sends 8 messages to one actor and waits until all are
// handled.
func BenchmarkPoolBurst(b *testing.B) {
	const burst = 8
	done := make(chan struct{})
	left := burst
	p := NewPool("burst", 1, 1024, func(_ int, _ wide) {
		if left--; left == 0 {
			left = burst
			done <- struct{}{}
		}
	})
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			p.Send(0, wide{})
		}
		<-done
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/msg")
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
