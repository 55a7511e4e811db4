package frontend_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/frontend"
	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/serving"
)

// captureLogger is a mutex-guarded log sink for asserting on emitted
// lines.
type captureLogger struct {
	*obs.Logger
	mu  sync.Mutex
	buf bytes.Buffer
}

func newCaptureLogger() *captureLogger {
	c := &captureLogger{}
	c.Logger = obs.NewLogger(lockedWriter{c}, "frontend")
	return c
}

type lockedWriter struct{ c *captureLogger }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.c.buf.Write(p)
}

func (c *captureLogger) contains(s string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Contains(c.buf.String(), s)
}

// coalesceConfig is a single-partition deployment so every request lands
// in the same combiner.
const coalesceConfig = `{
  "samplers": 1,
  "servers": 1,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(2).by('TopK')"
  ]
}`

// newCoalesceFrontend boots the single-partition deployment and returns
// its frontend.
func newCoalesceFrontend(t *testing.T) *frontend.Frontend {
	t.Helper()
	_, _, fe := boot(t, coalesceConfig, cluster.Options{})
	return fe
}

// sampleAll runs one Sample per seed, each on its own goroutine, releases
// them together and returns once all have answered.
func sampleAll(fe *frontend.Frontend, seeds []graph.VertexID) ([]graph.VertexID, []error) {
	got := make([]graph.VertexID, len(seeds))
	errs := make([]error, len(seeds))
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			res, err := fe.Sample(query.ID(0), seed)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Layers[0][0]
		}()
	}
	close(gate)
	wg.Wait()
	return got, errs
}

// checkOwnAnswers fails unless request i answered without error and its
// seed layer echoes seeds[i].
func checkOwnAnswers(t *testing.T, seeds, got []graph.VertexID, errs []error) {
	t.Helper()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i] != seeds[i] {
			t.Fatalf("request %d got seed layer %d, want %d — answers crossed wires", i, got[i], seeds[i])
		}
	}
}

// seedRange is the seeds 1..n.
func seedRange(n int) []graph.VertexID {
	seeds := make([]graph.VertexID, n)
	for i := range seeds {
		seeds[i] = graph.VertexID(i + 1)
	}
	return seeds
}

// TestConcurrentSamplesKeepTheirOwnAnswer releases N concurrent Samples
// into one partition and asserts (a) every request gets its own exact
// result back — the seed layer must echo that request's seed — (b) the
// frames sent: two concurrent samples fit the partition's window of two
// and go direct, one frame each, while 64 queue behind the window and
// leave in a few combined frames, and (c) no goroutine outlives the burst.
// Runs under -race in CI, which is the point: the rpc client's pending
// table and the combiner's queue are hit from every goroutine at once.
func TestConcurrentSamplesKeepTheirOwnAnswer(t *testing.T) {
	for _, path := range []struct {
		name                 string
		n                    int
		stall                time.Duration
		minFrames, maxFrames int64
	}{{"direct", 2, 0, 2, 2}, {"coalesced", 64, 20 * time.Millisecond, 3, 16}} {
		t.Run(path.name, func(t *testing.T) {
			fe := newCoalesceFrontend(t)
			// Warm up before the baseline: the first Sample dials the
			// frontend's serving connection, which starts two goroutines
			// that live as long as the connection, not the burst — the
			// client's read loop (rpc.Client.getConn) and the server's
			// serve loop for the accepted connection (rpc.Server.acceptLoop).
			// The pipeline's parked broker fetch streams come and go on
			// their own; the slack below absorbs them.
			if _, err := fe.Sample(query.ID(0), 1); err != nil {
				t.Fatalf("warm-up sample: %v", err)
			}
			baseline := runtime.NumGoroutine()
			before := fe.SampleCalls()
			if path.stall > 0 {
				// The first two calls hold the window a while, so the burst
				// queues behind it however slowly the host schedules it.
				faultpoint.Delay("serving.sample", 2, path.stall)
				t.Cleanup(faultpoint.Reset)
			}

			seeds := seedRange(path.n)
			got, errs := sampleAll(fe, seeds)
			checkOwnAnswers(t, seeds, got, errs)
			frames := fe.SampleCalls() - before
			if frames < path.minFrames || frames > path.maxFrames {
				t.Fatalf("%d concurrent samples used %d RPC frames, want %d to %d", path.n, frames, path.minFrames, path.maxFrames)
			}

			// Leak check: once the burst drained, no fan-out or per-call
			// goroutine may linger.
			leakDeadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if runtime.NumGoroutine() <= baseline+2 {
					break
				}
				if time.Now().After(leakDeadline) {
					buf := make([]byte, 1<<20)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("goroutines grew after drain: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// stallWindow fills partition 0's window with two samples stalled in the
// serving worker for d, and returns once both are parked there; the
// returned channel closes when both have answered.
func stallWindow(t *testing.T, fe *frontend.Frontend, d time.Duration) <-chan struct{} {
	t.Helper()
	faultpoint.Delay("serving.sample", 2, d)
	t.Cleanup(faultpoint.Reset)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sampleAll(fe, seedRange(2))
	}()
	waitFor(t, "two stalled samples", func() bool { return faultpoint.Hits("serving.sample") == 2 })
	return done
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestQueuedSampleNeverOutlivesItsBudget stalls the two calls that fill
// the window under a 100ms RequestTimeout and queues a third behind them.
// The frontend clock stands still while all three are admitted, so they
// share one deadline, and is moved past it before the window frees: the
// third must come back as a deadline failure when the calls ahead of it
// do, well inside twice its budget, and no frame may carry it.
func TestQueuedSampleNeverOutlivesItsBudget(t *testing.T) {
	const budget = 100 * time.Millisecond
	fe := newCoalesceFrontend(t)
	clk := clock.NewFake()
	fe.UseObs(clk, nil, nil)
	fe.SetOverload(deploy.OverloadFile{RequestTimeoutMS: int(budget / time.Millisecond)})
	before := fe.SampleCalls()
	stalled := stallWindow(t, fe, time.Second)

	start := time.Now()
	var err error
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		_, err = fe.Sample(query.ID(0), 3)
	}()
	waitFor(t, "the third sample to queue", func() bool { return fe.QueuedSamples(0) == 1 })
	clk.Advance(budget + time.Millisecond)
	<-queued
	elapsed := time.Since(start)
	if !errors.Is(err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("queued sample: err=%v, want deadline exceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("queued sample returned after %v, past twice its %v budget", elapsed, budget)
	}
	<-stalled
	if frames := fe.SampleCalls() - before; frames != 2 {
		t.Fatalf("%d RPC frames for two stalled calls and one expired queued sample, want 2", frames)
	}
}

// TestQueueDeeperThanMaxBatch queues serving.MaxBatch+10 samples behind a
// stalled window. The first call to return hands its slot to a batch of
// exactly MaxBatch, the second to the other ten: every sample is answered
// with its own seed, and the worker refuses none as oversized.
func TestQueueDeeperThanMaxBatch(t *testing.T) {
	fe := newCoalesceFrontend(t)
	before := fe.SampleCalls()
	stalled := stallWindow(t, fe, time.Second)

	n := serving.MaxBatch + 10
	seeds := seedRange(n)
	type answers struct {
		got  []graph.VertexID
		errs []error
	}
	out := make(chan answers)
	go func() {
		got, errs := sampleAll(fe, seeds)
		out <- answers{got, errs}
	}()
	waitFor(t, "the queue to fill", func() bool { return fe.QueuedSamples(0) == n })
	a := <-out
	<-stalled
	checkOwnAnswers(t, seeds, a.got, a.errs)
	if frames := fe.SampleCalls() - before; frames != 4 {
		t.Fatalf("two stalled calls and %d queued samples used %d RPC frames, want 4", n, frames)
	}
}

// TestBatchDeadlineIsMemberMinimum stalls the serve path and flushes a
// batch whose members hold a short and a long deadline. The batch RPC
// must cut off at the SHORT member's deadline — the batch-wide deadline
// is the minimum, so a short-deadline member is never held open to its
// batchmates' longer budgets.
func TestBatchDeadlineIsMemberMinimum(t *testing.T) {
	fe := newCoalesceFrontend(t)
	faultpoint.Delay("serving.sample", -1, 2*time.Second)
	defer faultpoint.Reset()

	start := time.Now()
	errs := fe.FlushBatch(100*time.Millisecond, 30*time.Second)
	elapsed := time.Since(start)
	if !errors.Is(errs[0], rpc.ErrDeadlineExceeded) {
		t.Fatalf("short member: err=%v, want deadline exceeded", errs[0])
	}
	// Well under the 2s stall and the long member's 30s: the short member
	// bounded the whole batch.
	if elapsed > time.Second {
		t.Fatalf("batch ran %v — the short member's 100ms deadline did not bound it", elapsed)
	}
	if errs[1] == nil {
		t.Fatal("long member should share the batch-wide deadline failure")
	}
}

// TestBatchExpiredMemberFailsLocally checks that a member whose deadline
// passed while queued is failed in the frontend without consuming a slot
// in the RPC — an all-expired batch sends no frame at all.
func TestBatchExpiredMemberFailsLocally(t *testing.T) {
	fe := newCoalesceFrontend(t)
	before := fe.SampleCalls()
	if errs := fe.FlushBatch(-time.Millisecond); !errors.Is(errs[0], rpc.ErrDeadlineExceeded) {
		t.Fatalf("expired member: err=%v, want deadline exceeded", errs[0])
	}
	if d := fe.SampleCalls() - before; d != 0 {
		t.Fatalf("all-expired batch still sent %d RPC frames", d)
	}
	if fe.DeadlineExceeded.Value() == 0 {
		t.Fatal("local expiry not counted in DeadlineExceeded")
	}
}

// TestUntracedSampleLogsLikeTraced is the regression test for the
// untraced serve path: Sample must emit the same failure warning the
// traced path does (it used to return the error silently).
func TestUntracedSampleLogsLikeTraced(t *testing.T) {
	fe := newCoalesceFrontend(t)
	log := newCaptureLogger()
	fe.SetLogger(log.Logger, time.Nanosecond) // every sample is "slow"
	if _, err := fe.Sample(query.ID(99), 1); err == nil {
		t.Fatal("unknown query should fail")
	}
	if !log.contains("sample failed") {
		t.Fatal("untraced Sample did not warn on failure")
	}
	if _, err := fe.Sample(query.ID(0), 1); err != nil {
		t.Fatal(err)
	}
	if !log.contains("slow sample") {
		t.Fatal("untraced Sample did not feed the slow-sample log")
	}
}
