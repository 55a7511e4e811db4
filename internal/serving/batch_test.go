package serving

import (
	"errors"
	"testing"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/wire"
)

// TestSampleBudgetWithoutClientTimeout is the regression test for the
// silently-ignored budget: with a zero configured client timeout, a
// positive per-call budget was compared against zero, lost, and the call
// ran unbounded. The fix makes any positive budget bound the call.
func TestSampleBudgetWithoutClientTimeout(t *testing.T) {
	srv := rpc.NewServer()
	srv.Handle(MethodSample, func(req []byte) ([]byte, error) {
		time.Sleep(300 * time.Millisecond)
		w := codec.NewWriter(64)
		AppendBatchResults(w, []Response{{Result: encodeResult(&Result{})}})
		return w.Bytes(), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// timeout 0 on purpose: DialServing substitutes a default, and the bug
	// only bites when no client-side bound is configured.
	c := &Client{c: rc}
	defer c.Close()

	start := time.Now()
	_, err = c.SampleBudget(0, 1, 0, 30*time.Millisecond)
	elapsed := time.Since(start)
	if !errors.Is(err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("budget without client timeout: err=%v, want deadline exceeded", err)
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("call ran %v — the 30ms budget did not bound it", elapsed)
	}
	// The control: given the time, the same call decodes the fake's answer,
	// so the error above is the budget's and not the frame's.
	if _, err := c.SampleBudget(0, 1, 0, 5*time.Second); err != nil {
		t.Fatalf("budget above the handler's delay: %v", err)
	}
}

// loadedRPCWorker builds a started worker with one seed's samples applied
// and serves it over a real RPC listener.
func loadedRPCWorker(t *testing.T, cfg func(*Config)) (*Worker, *Client) {
	t.Helper()
	b := mq.NewBroker(mq.Options{})
	t.Cleanup(func() { b.Close() })
	c := Config{
		ID: 0, NumServers: 1,
		Plans:  []*query.Plan{testPlan(t)},
		Broker: b,
	}
	if cfg != nil {
		cfg(&c)
	}
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	t.Cleanup(w.Stop)
	plan := testPlan(t)
	push(t, b, &wire.Message{Kind: wire.KindSampleUpsert, Hop: plan.OneHops[0].ID, Vertex: 1,
		Samples: []wire.SampleRef{{Neighbor: 2, Ts: 9, Weight: 1}}})
	push(t, b, &wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 2, Feature: []float32{7}})
	waitApplied(t, w, 2)

	srv := rpc.NewServer()
	ServeRPC(w, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := DialServing(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return w, client
}

// TestSampleBatchRoundTrip drives a mixed batch over a real RPC hop: two
// valid members (one traced) and one unknown-query member. Outcomes must
// stay index-aligned, the bad member must not poison its batchmates, and
// each good member must carry its own full result.
func TestSampleBatchRoundTrip(t *testing.T) {
	_, client := loadedRPCWorker(t, nil)
	items := []BatchItem{
		{Query: 0, Seed: 1},
		{Query: 99, Seed: 1}, // unknown query: per-member remote error
		{Query: 0, Seed: 1, Trace: 7},
	}
	out, err := client.SampleBatch(items, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(items) {
		t.Fatalf("got %d results for %d items", len(out), len(items))
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("member %d: %v", i, out[i].Err)
		}
		res, err := out[i].Result.Decode()
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if len(res.Layers) == 0 || len(res.Layers[1]) != 1 || res.Layers[1][0] != 2 {
			t.Fatalf("member %d layers: %v", i, res.Layers)
		}
		if res.Features[2][0] != 7 {
			t.Fatalf("member %d features: %v", i, res.Features)
		}
	}
	var re *rpc.RemoteError
	if !errors.As(out[1].Err, &re) {
		t.Fatalf("unknown-query member: err=%v, want remote error", out[1].Err)
	}
}

// TestSampleBatchMemberBudget pins the one deadline a batch's members are
// served under: the frame's, the earliest of theirs. A turn that starts
// past it fails every member with the typed deadline error, which crosses
// the hop as such; a live frame serves every member.
func TestSampleBatchMemberBudget(t *testing.T) {
	w, client := loadedRPCWorker(t, nil)
	items := []BatchItem{{Query: 0, Seed: 1}, {Query: 0, Seed: 1, Trace: 5}}
	resp := make(chan []Response, 1)
	w.handleRequest(0, request{batch: items, resp: resp, release: func() {},
		deadline: w.cfg.Clock.Now().Add(-time.Millisecond).UnixNano()})
	enc := codec.NewWriter(64)
	AppendBatchResults(enc, <-resp)
	expired, err := DecodeBatchResults(codec.NewReader(enc.Bytes()))
	if err != nil || len(expired) != len(items) {
		t.Fatalf("expired batch: %d members, %v", len(expired), err)
	}
	for i, r := range expired {
		if !errors.Is(r.Err, rpc.ErrDeadlineExceeded) {
			t.Fatalf("member %d of an expired batch: err=%v, want deadline exceeded", i, r.Err)
		}
	}
	live, err := client.SampleBatch(items, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range live {
		if r.Err != nil || r.Result == nil {
			t.Fatalf("member %d of a live batch: %+v", i, r)
		}
	}
}

// TestSampleBatchSizeCap checks the worker-side batch bound: a batch
// larger than MaxBatch is refused whole.
func TestSampleBatchSizeCap(t *testing.T) {
	_, client := loadedRPCWorker(t, nil)
	items := make([]BatchItem, MaxBatch+1)
	for i := range items {
		items[i].Seed = 1
	}
	if _, err := client.SampleBatch(items, 10*time.Second); err == nil {
		t.Fatal("batch above MaxBatch should be refused")
	}
	if _, err := client.SampleBatch(items[:MaxBatch], 10*time.Second); err != nil {
		t.Fatalf("batch at MaxBatch: %v", err)
	}
}

// TestBatchRequestCodec round-trips a batch request and rejects every
// truncation and any trailing garbage — the Finish-discipline audit's
// table test for the new decoder.
func TestBatchRequestCodec(t *testing.T) {
	items := []BatchItem{
		{Query: 1, Seed: 2, Trace: 3},
		{Query: 0, Seed: 1 << 40},
		{Seed: 9, Trace: 1 << 50},
	}
	w := codec.NewWriter(64)
	AppendBatchRequest(w, items)
	full := w.Bytes()

	got, err := DecodeBatchRequest(codec.NewReader(full), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d: %+v != %+v", i, got[i], items[i])
		}
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeBatchRequest(codec.NewReader(full[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	trailing := append(append([]byte{}, full...), 0xFF)
	if _, err := DecodeBatchRequest(codec.NewReader(trailing), nil); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBatchResultsCodec round-trips the three member statuses and
// rejects truncations and trailing bytes.
func TestBatchResultsCodec(t *testing.T) {
	resps := []Response{
		{Result: encodeResult(&Result{
			Layers:   [][]graph.VertexID{{1}, {2}},
			Features: map[graph.VertexID][]float32{2: {1.5}},
			Lookups:  3,
		})},
		{Err: errors.New("boom")},
		{Err: rpc.ErrDeadlineExceeded},
	}
	w := codec.NewWriter(256)
	AppendBatchResults(w, resps)
	full := w.Bytes()

	out, err := DecodeBatchResults(codec.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("decoded %d members, want 3", len(out))
	}
	if out[0].Err != nil {
		t.Fatalf("ok member: %v", out[0].Err)
	}
	if res, err := out[0].Result.Decode(); err != nil || res.Layers[1][0] != 2 || res.Features[2][0] != 1.5 || res.Lookups != 3 {
		t.Fatalf("ok member: %+v, %v", res, err)
	}
	var re *rpc.RemoteError
	if !errors.As(out[1].Err, &re) || re.Msg != "boom" {
		t.Fatalf("err member: %v", out[1].Err)
	}
	if !errors.Is(out[2].Err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("expired member: %v", out[2].Err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeBatchResults(codec.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	trailing := append(append([]byte{}, full...), 0xFF)
	if _, err := DecodeBatchResults(codec.NewReader(trailing)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBatchCodecZeroAlloc pins the steady-state batch encode/decode at
// exactly zero allocations per op: request encode into a reused writer,
// request decode into a reused item slice, and response encode of a
// canned result — the serve path's per-batch codec work.
func TestBatchCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	items := []BatchItem{
		{Query: 1, Seed: 2, Trace: 3},
		{Query: 0, Seed: 1 << 40},
	}
	resps := []Response{
		{Result: encodeResult(&Result{Layers: [][]graph.VertexID{{1}, {2, 3}}, Lookups: 3})},
		{Err: rpc.ErrDeadlineExceeded},
	}
	w := codec.NewWriter(256)
	dst := make([]BatchItem, 0, 8)
	var r codec.Reader
	allocs := testing.AllocsPerRun(200, func() {
		w.Reset()
		AppendBatchRequest(w, items)
		r.Reset(w.Bytes())
		var err error
		dst, err = DecodeBatchRequest(&r, dst)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		w.Reset()
		AppendBatchResults(w, resps)
	})
	if allocs != 0 {
		t.Fatalf("batch codec reuse path: %v allocs/op, want 0", allocs)
	}
}
