package serving

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/overload"
	"helios/internal/query"
	"helios/internal/rpc"
)

// TestDeadlineFastFailAtDequeue drives one serve turn whose batch
// deadline passed while it was queued: the actor fails it fast with the
// typed deadline error instead of assembling an answer, and frees its slot.
func TestDeadlineFastFailAtDequeue(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)

	resp := make(chan []Response, 1)
	released := false
	w.handleRequest(0, request{
		batch: []BatchItem{{Query: 0, Seed: 1}}, resp: resp,
		release:  func() { released = true },
		deadline: w.cfg.Clock.Now().Add(-time.Millisecond).UnixNano(),
	})
	if out := <-resp; !overload.IsDeadline(out[0].Err) {
		t.Fatalf("expired request returned %v, want deadline error", out[0].Err)
	}
	if !released {
		t.Fatal("the turn did not free its slot")
	}
	if w.deadlineExp.Value() == 0 {
		t.Fatal("serving.deadline_expired not incremented")
	}
	if w.served.Value() != 0 {
		t.Fatal("expired request was served anyway")
	}
}

// gatedLog is a log sink whose writes wait until open is closed: a serve
// turn logging a slow traced request holds its actor until then.
type gatedLog struct{ open chan struct{} }

func (g gatedLog) Write(p []byte) (int, error) {
	<-g.open
	return len(p), nil
}

// heldWorker starts a worker with threads serve actors whose every traced
// turn is held in its slow-log line until the returned func runs (cleanup
// runs it too).
func heldWorker(t *testing.T, threads int) (*Worker, func()) {
	t.Helper()
	b := mq.NewBroker(mq.Options{})
	t.Cleanup(func() { b.Close() })
	gate := make(chan struct{})
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:        []*query.Plan{testPlan(t)},
		Broker:       b,
		ServeThreads: threads,
		Logger:       obs.NewLogger(gatedLog{gate}, "serving"),
		SlowLog:      time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	t.Cleanup(w.Stop)
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	return w, open
}

// TestAdmittedBatchesRunOnTheirOwnActors: two admitted batches run at once
// on a 2-thread worker, though their seeds are one, because each runs on
// the actor its admission slot names. Both are assembled (served counts
// two) while the first turn is still held.
func TestAdmittedBatchesRunOnTheirOwnActors(t *testing.T) {
	w, open := heldWorker(t, 2)
	done := make(chan error, 2)
	for trace := range uint64(2) {
		go func() {
			_, err := w.ServeBatch(rpc.Ctx{Trace: trace + 1}, []BatchItem{{Query: 0, Seed: 1, Trace: trace + 1}})
			done <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.served.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := w.served.Value(); n != 2 {
		t.Errorf("with two slots admitted, %d of two batches started while one turn was held", n)
	}
	open()
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestGivenUpBatchKeepsItsSlot: a waiter whose budget runs out while its
// batch's turn is held returns the deadline error, but the slot stays held
// until the actor's turn ends, so no next batch is admitted onto a busy
// actor.
func TestGivenUpBatchKeepsItsSlot(t *testing.T) {
	w, open := heldWorker(t, 1)
	ctx := rpc.Ctx{Trace: 1, Deadline: time.Now().Add(50 * time.Millisecond)}
	if _, err := w.ServeBatch(ctx, []BatchItem{{Query: 0, Seed: 1, Trace: 1}}); !overload.IsDeadline(err) {
		t.Fatalf("waiter on a held turn: %v, want deadline error", err)
	}
	if in := w.limiter.Inflight(); in != 1 {
		t.Fatalf("after its waiter gave up, a batch still on its actor holds %d slots, want 1", in)
	}
	open()
	waitUntil(t, func() bool { return w.limiter.Inflight() == 0 })
}

// saturate holds every admission slot of w and parks as many waiters,
// filling the queue, so the next Acquire is shed queue_full. The returned
// func frees them all.
func saturate(t *testing.T, w *Worker) func() {
	t.Helper()
	n := w.limiter.Slots()
	releases := make([]func(), n)
	for i := range releases {
		_, r, err := w.limiter.Acquire(time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		releases[i] = r
	}
	parked := make(chan error, n)
	for range n {
		go func() {
			_, r, err := w.limiter.Acquire(time.Time{})
			if r != nil {
				r()
			}
			parked <- err
		}()
	}
	waitUntil(t, func() bool { return w.limiter.Queued() == int64(n) })
	return func() {
		for _, r := range releases {
			r()
		}
		for range n {
			if err := <-parked; err != nil {
				t.Errorf("parked waiter: %v", err)
			}
		}
	}
}

// TestAdmissionQueueMatchesSlots: a worker admits as many batches as it has
// serve actors and queues as many more; the batch after those is refused
// queue_full at once instead of waiting behind work that would outlast its
// budget.
func TestAdmissionQueueMatchesSlots(t *testing.T) {
	for _, tc := range []struct {
		name         string
		serveThreads int
		want         int64
	}{{"serve-threads-2", 2, 2}, {"defaults", 0, int64(runtime.GOMAXPROCS(0))}} {
		t.Run(tc.name, func(t *testing.T) {
			b := mq.NewBroker(mq.Options{})
			defer b.Close()
			reg := obs.NewRegistry()
			w, err := New(Config{
				ID: 0, NumServers: 1,
				Plans:        []*query.Plan{testPlan(t)},
				Broker:       b,
				ServeThreads: tc.serveThreads,
				Metrics:      reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			w.Start()
			defer w.Stop()
			free := saturate(t, w)
			defer free()
			if in, q := w.limiter.Inflight(), w.limiter.Queued(); in != tc.want || q != tc.want {
				t.Fatalf("saturated worker admits %d batches and queues %d, want %d and %d", in, q, tc.want, tc.want)
			}
			shed := reg.Counter("overload.shed", "stage", "serving", "reason", "queue_full")
			if _, err := w.ServeBatch(rpc.Ctx{}, []BatchItem{{Seed: 1}}); !overload.IsOverload(err) || shed.Value() != 1 {
				t.Fatalf("batch past %d admitted and %d queued: %v, %d queue_full sheds; want one", tc.want, tc.want, err, shed.Value())
			}
		})
	}
}

func TestServeBatchShedsWhenSaturated(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	plan := testPlan(t)
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:        []*query.Plan{plan},
		Broker:       b,
		ServeThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	free := saturate(t, w)
	defer free()

	resps, err := w.ServeBatch(rpc.Ctx{}, []BatchItem{{Seed: 1}})
	if !overload.IsOverload(err) || resps != nil {
		t.Fatalf("saturated worker returned %v, %v; want overload shed", resps, err)
	}
}

// TestShedBatchIsRefusedWhole: a batch takes one admission slot or loses
// it as a unit. With the only slot held, a batch of three queues as one
// waiter; a further batch finds the queue full and is refused whole — every
// member gets the typed shed, and the shed counts once — and the queued
// batch is answered in full once the slot frees.
func TestShedBatchIsRefusedWhole(t *testing.T) {
	reg := obs.NewRegistry()
	w, client := loadedRPCWorker(t, func(c *Config) {
		c.ServeThreads, c.Metrics = 1, reg
	})
	shed := reg.Counter("overload.shed", "stage", "serving", "reason", "queue_full")
	_, release, err := w.limiter.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	batch := []BatchItem{{Seed: 1}, {Seed: 1}, {Seed: 1}}
	type answer struct {
		out []BatchResult
		err error
	}
	queued := make(chan answer, 1)
	go func() {
		out, err := client.SampleBatch(batch, 0)
		queued <- answer{out, err}
	}()
	waitUntil(t, func() bool { return w.limiter.Queued() == 1 })
	if q := w.limiter.Queued(); q != 1 {
		t.Fatalf("a queued batch of three counts %d waiters, want 1", q)
	}

	before := shed.Value()
	out, err := client.SampleBatch(batch, 0)
	if !overload.IsOverload(err) {
		t.Fatalf("batch past a full queue: %+v, %v; want the batch refused with a typed shed", out, err)
	}
	if d := shed.Value() - before; d != 1 {
		t.Fatalf("refusing one batch of three counted %d sheds, want 1", d)
	}

	release()
	got := <-queued
	if got.err != nil {
		t.Fatalf("queued batch: %v", got.err)
	}
	for i, r := range got.out {
		if r.Err != nil {
			t.Fatalf("queued member %d: %v", i, r.Err)
		}
	}
}

func TestRemoteDeadlineShedIsTyped(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	srv := rpc.NewServer()
	plan := testPlan(t)
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:        []*query.Plan{plan},
		Broker:       b,
		ServeThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	ServeRPC(w, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialServing(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Saturate the worker: a remote call must come back as an overload
	// error recognisable through the RemoteError wrapper.
	free := saturate(t, w)
	defer free()
	_, err = cl.SampleBudget(0, 1, 0, 0)
	if !overload.IsOverload(err) {
		t.Fatalf("remote shed arrived as %v, want IsOverload", err)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
