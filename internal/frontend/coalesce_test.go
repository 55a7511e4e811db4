package frontend_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/faultpoint"
	"helios/internal/frontend"
	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/rpc"
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
// in the same batcher.
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

// TestConcurrentSamplesKeepTheirOwnAnswer releases N concurrent Samples
// into one partition, on the direct path and with coalescing on, and
// asserts (a) every request gets its own exact result back — the seed layer
// must echo that request's seed — (b) the direct path sent one RPC frame
// per request and the coalesced one well under N, and (c) no goroutine
// outlives the burst. Runs under -race in CI, which is the point: the rpc
// client's pending table, and the batcher's pending list and timer, are hit
// from every goroutine at once.
func TestConcurrentSamplesKeepTheirOwnAnswer(t *testing.T) {
	const n = 64
	for _, path := range []struct {
		name                 string
		batchMax             int
		minFrames, maxFrames int64
	}{{"direct", 0, n, n}, {"coalesced", 8, 1, n/2 - 1}} {
		t.Run(path.name, func(t *testing.T) {
			fe := newCoalesceFrontend(t)
			fe.SetBatching(path.batchMax, 5*time.Millisecond)
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

			gate := make(chan struct{})
			errs := make([]error, n)
			seeds := make([]graph.VertexID, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-gate
					seed := graph.VertexID(i + 1)
					res, err := fe.Sample(query.ID(0), seed)
					if err != nil {
						errs[i] = err
						return
					}
					seeds[i] = res.Layers[0][0]
				}(i)
			}
			close(gate)
			wg.Wait()
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if want := graph.VertexID(i + 1); seeds[i] != want {
					t.Fatalf("request %d got seed layer %d, want %d — answers crossed wires", i, seeds[i], want)
				}
			}
			frames := fe.SampleCalls() - before
			if frames < path.minFrames || frames > path.maxFrames {
				t.Fatalf("%d concurrent samples used %d RPC frames, want %d to %d", n, frames, path.minFrames, path.maxFrames)
			}

			// Leak check: once the burst drained, no flusher, fan-out or
			// per-call goroutine may linger.
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

// TestBatchDeadlineIsMemberMinimum stalls the serve path and flushes a
// batch whose members hold a short and a long deadline. The batch RPC
// must cut off at the SHORT member's deadline — the batch-wide deadline
// is the minimum, so a short-deadline member is never held open to its
// batchmates' longer budgets.
func TestBatchDeadlineIsMemberMinimum(t *testing.T) {
	fe := newCoalesceFrontend(t)
	fe.SetBatching(8, time.Millisecond)
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
// passed while coalescing is failed in the frontend without consuming a
// slot in the RPC — an all-expired batch sends no frame at all.
func TestBatchExpiredMemberFailsLocally(t *testing.T) {
	fe := newCoalesceFrontend(t)
	fe.SetBatching(8, time.Millisecond)
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
