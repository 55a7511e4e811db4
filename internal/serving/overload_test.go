package serving

import (
	"testing"
	"time"

	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/overload"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/wire"
)

// seedCache applies a one-hop sample plus features so degraded/normal paths
// have something to assemble.
func seedCache(t *testing.T, w *Worker, plan *query.Plan) {
	t.Helper()
	w.applyMessage(0, wire.Message{Kind: wire.KindSampleUpsert, Hop: plan.OneHops[0].ID, Vertex: 1,
		Samples: []wire.SampleRef{{Neighbor: 2, Ts: 1, Weight: 1}}})
	w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 1, Feature: []float32{1, 2}})
}

func TestDeadlineFastFailAtDequeue(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w := newTestWorker(t, b)
	w.Start()
	defer w.Stop()

	resp := make(chan Response, 1)
	// A deadline already in the past: the serve actor must fail fast with the
	// typed deadline error instead of assembling an answer.
	w.Submit(Request{
		Query: 0, Seed: 1, Resp: resp,
		Deadline: w.cfg.Clock.Now().Add(-time.Millisecond).UnixNano(),
	})
	select {
	case out := <-resp:
		if !overload.IsDeadline(out.Err) {
			t.Fatalf("expired request returned %v, want deadline error", out.Err)
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

func TestServeAdmittedShedsWhenSaturated(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	plan := testPlan(t)
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:       []*query.Plan{plan},
		Broker:      b,
		MaxInflight: 1, MaxAdmitQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()

	// Occupy the single admission slot and the single queue slot directly.
	release, err := w.limiter.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	parked := make(chan error, 1)
	go func() {
		r, err := w.limiter.Acquire(time.Time{})
		if r != nil {
			r()
		}
		parked <- err
	}()
	waitUntil(t, func() bool { return w.limiter.Queued() == 1 })

	err = w.ServeAdmitted(rpc.Ctx{}, 0, 1).Err
	if !overload.IsOverload(err) {
		t.Fatalf("saturated worker returned %v, want overload shed", err)
	}
	release()
	<-parked
}

func TestServeAdmittedDegradesUnderShed(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	plan := testPlan(t)
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:       []*query.Plan{plan},
		Broker:      b,
		MaxInflight: 1, MaxAdmitQueue: 1,
		Degrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	seedCache(t, w, plan)

	release, err := w.limiter.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	parked := make(chan error, 1)
	go func() {
		r, err := w.limiter.Acquire(time.Time{})
		if r != nil {
			r()
		}
		parked <- err
	}()
	waitUntil(t, func() bool { return w.limiter.Queued() == 1 })

	resp := w.ServeAdmitted(rpc.Ctx{}, 0, 1)
	if resp.Err != nil {
		t.Fatalf("degraded path returned %v", resp.Err)
	}
	res, err := resp.Result.Decode()
	resp.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("result not tagged Degraded")
	}
	if len(res.Layers) == 0 || res.Layers[0][0] != graph.VertexID(1) {
		t.Fatal("degraded result lost the seed layer")
	}
	if w.degraded.Value() != 1 {
		t.Fatalf("serving.degraded = %d, want 1", w.degraded.Value())
	}
	release()
	<-parked
}

func TestSampleDegradedBounded(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	plan := testPlan(t)
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:           []*query.Plan{plan},
		Broker:          b,
		Degrade:         true,
		DegradeInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedCache(t, w, plan)

	// Hold the only degraded slot; a second inline assembly must shed, not
	// queue (the degraded path is strictly best-effort).
	rel, ok := w.degradedLim.TryAcquire()
	if !ok {
		t.Fatal("fresh degraded limiter refused a slot")
	}
	if err := w.SampleDegraded(0, 1).Err; !overload.IsOverload(err) {
		t.Fatalf("second degraded assembly returned %v, want shed", err)
	}
	rel()
	resp := w.SampleDegraded(0, 1)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	res, err := resp.Result.Header()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("result not tagged Degraded")
	}
}

func TestResultCodecCarriesDegradedFlag(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	srv := rpc.NewServer()
	plan := testPlan(t)
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:       []*query.Plan{plan},
		Broker:      b,
		MaxInflight: 1, MaxAdmitQueue: 1,
		Degrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	seedCache(t, w, plan)
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

	// Normal path first: flag must stay clear across the wire.
	res, err := cl.Sample(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.StalenessNS != 0 {
		t.Fatalf("normal result arrived degraded: %+v", res)
	}

	// Saturate admission, then call again: the degraded result's flag and
	// staleness must survive the codec round trip.
	release, err := w.limiter.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	parked := make(chan error, 1)
	go func() {
		r, err := w.limiter.Acquire(time.Time{})
		if r != nil {
			r()
		}
		parked <- err
	}()
	waitUntil(t, func() bool { return w.limiter.Queued() == 1 })

	res, err = cl.Sample(0, 1)
	if err != nil {
		t.Fatalf("degraded call returned %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded flag lost across RPC")
	}
	release()
	<-parked
}

func TestRemoteDeadlineShedIsTyped(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	srv := rpc.NewServer()
	plan := testPlan(t)
	w, err := New(Config{
		ID: 0, NumServers: 1,
		Plans:       []*query.Plan{plan},
		Broker:      b,
		MaxInflight: 1, MaxAdmitQueue: 1,
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

	// Saturate the worker (Degrade off): a remote call must come back as an
	// overload error recognisable through the RemoteError wrapper.
	release, err := w.limiter.Acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	parked := make(chan error, 1)
	go func() {
		r, err := w.limiter.Acquire(time.Time{})
		if r != nil {
			r()
		}
		parked <- err
	}()
	waitUntil(t, func() bool { return w.limiter.Queued() == 1 })

	_, err = cl.Sample(0, 1)
	if !overload.IsOverload(err) {
		t.Fatalf("remote shed arrived as %v, want IsOverload", err)
	}
	release()
	<-parked
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
