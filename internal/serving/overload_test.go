package serving

import (
	"testing"
	"time"

	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/overload"
	"helios/internal/query"
	"helios/internal/rpc"
)

func TestDeadlineFastFailAtDequeue(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()

	resp := make(chan []Response, 1)
	// A deadline already in the past: the serve actor must fail fast with the
	// typed deadline error instead of assembling an answer.
	w.Submit(Request{
		Batch: []BatchItem{{Query: 0, Seed: 1}}, Resp: resp,
		Deadline: w.cfg.Clock.Now().Add(-time.Millisecond).UnixNano(),
	})
	select {
	case out := <-resp:
		if !overload.IsDeadline(out[0].Err) {
			t.Fatalf("expired request returned %v, want deadline error", out[0].Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response for expired request")
	}
	if w.deadlineExp.Value() == 0 {
		t.Fatal("serving.deadline_expired not incremented")
	}
	if w.served.Value() != 0 {
		t.Fatal("expired request was served anyway")
	}
}

// saturate holds every admission slot of w and parks as many waiters,
// filling the queue, so the next Acquire is shed queue_full. The returned
// func frees them all.
func saturate(t *testing.T, w *Worker) func() {
	t.Helper()
	n := w.limiter.Slots()
	releases := make([]func(), n)
	for i := range releases {
		r, err := w.limiter.Acquire(time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		releases[i] = r
	}
	parked := make(chan error, n)
	for range n {
		go func() {
			r, err := w.limiter.Acquire(time.Time{})
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
	}{{"serve-threads-2", 2, 2}, {"defaults", 0, 8}} {
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
	release, err := w.limiter.Acquire(time.Time{})
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
