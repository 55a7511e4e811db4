package cluster

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/codec"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/rpc"
	"helios/internal/sampling"
	"helios/internal/serving"
	"helios/internal/wire"
	"helios/internal/workload"
)

// topologies are the two ways Boot wires a deployment.
var topologies = []struct {
	name    string
	brokers int
}{
	{"in-process", 0},
	{"tcp", 1},
}

func testDeploy(t *testing.T) (*deploy.Config, *testGraph) {
	t.Helper()
	g := newTestGraph()
	cfg, err := deployFor(localConfig{
		Samplers: 2, Servers: 2, Schema: g.schema,
		Queries: []query.Query{twoHopTopK(t, g, [2]int{2, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, g
}

// TestEveryStopsWithTheRole pins the one periodic-work helper: it fires
// repeatedly while the role lives and never after Close returns.
func TestEveryStopsWithTheRole(t *testing.T) {
	var l lifecycle
	var calls atomic.Int64
	l.every(5*time.Millisecond, func() { calls.Add(1) })
	l.every(0, func() { t.Error("a zero interval must never fire") })
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("periodic fn called %d times", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	closed := false
	l.onClose(func() { closed = true })
	l.Close()
	after := calls.Load()
	if !closed {
		t.Fatal("Close did not run the closers")
	}
	time.Sleep(30 * time.Millisecond)
	if calls.Load() != after {
		t.Fatal("periodic fn kept firing after Close")
	}
	l.Close() // idempotent
}

// TestCloseDrainsInFlightRequests is the shared-lifecycle contract at the
// gateway: a /sample held inside the serve path when the deployment closes
// still gets its 200, every goroutine the boot started is gone afterwards,
// and closing twice is harmless. A replica set adds follower fetch loops,
// status beats, the failover controller and parked quorum waits to what
// Close must stop; TestChaosLeaderFailover (internal/frontend) checks the
// same baseline after a leader has been closed mid-run. Close must also be
// quick with the followers gone: a stop ends every pause it meets.
func TestCloseDrainsInFlightRequests(t *testing.T) {
	for _, brokers := range []int{1, 3} {
		t.Run(fmt.Sprintf("brokers=%d", brokers), func(t *testing.T) { closeDrainsInFlight(t, brokers) })
	}
}

func closeDrainsInFlight(t *testing.T, brokers int) {
	client := &http.Client{Transport: &http.Transport{}}
	baseline := runtime.NumGoroutine()

	cfg, g := testDeploy(t)
	c, err := Boot(cfg, Options{Brokers: brokers})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(1), Dst: itemID(1), Type: g.click, Ts: 1}))
	if err := c.WaitQuiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	appended := make(chan error, 1)
	if brokers > 1 {
		// With its followers gone, broker 0 holds an append to a partition
		// it leads in its quorum wait: Close must release that too.
		for _, b := range c.Brokers[1:] {
			b.Close()
		}
		seed := userID(2)
		for graph.NewPartitioner(cfg.File.Samplers).Of(seed) != 0 {
			seed++
		}
		updates, _ := c.Broker.Topic(wire.TopicUpdates)
		end := updates.EndOffset(0)
		go func() { appended <- c.Ingest(graph.NewVertexUpdate(graph.Vertex{ID: seed, Type: g.user})) }()
		deadline := time.Now().Add(5 * time.Second)
		for updates.EndOffset(0) == end {
			if time.Now().After(deadline) {
				t.Fatal("the append never reached broker 0's log")
			}
			time.Sleep(time.Millisecond)
		}
	}

	const hold = 300 * time.Millisecond
	before := faultpoint.Hits("serving.sample")
	faultpoint.Delay("serving.sample", 1, hold)
	defer faultpoint.Reset()
	type outcome struct {
		status int
		err    error
		at     time.Time // when the answer was read
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := client.Get(fmt.Sprintf("http://%s/sample?q=0&seed=%d", c.Frontend.Addr, userID(1)))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- outcome{resp.StatusCode, err, time.Now()}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faultpoint.Hits("serving.sample") == before {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the serve path")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	c.Close() // while the request sleeps inside serving.sample
	closed := time.Now()
	out := <-done
	if out.err != nil || out.status != http.StatusOK {
		t.Fatalf("in-flight request cut by Close: status %d, err %v", out.status, out.err)
	}
	// Once the held request is answered, Close has only the gateway's
	// notice of it and the roles' own drains left: no worker's Stop waits
	// out a poll against a dead leader, and no broker's a parked quorum
	// wait (on a 2-vCPU host: 2.2-2.4 s before stops reached those waits,
	// 0.3-0.6 s after, -race included).
	const afterAnswer = 1200 * time.Millisecond
	t.Logf("Close took %v, %v of it after the held request was answered", closed.Sub(start), closed.Sub(out.at))
	if took := closed.Sub(out.at); took > afterAnswer {
		t.Errorf("Close returned %v after the held request was answered, want <= %v", took, afterAnswer)
	}
	c.Close() // a second Close is a no-op
	c.Frontend.Close()
	if brokers > 1 {
		if err := <-appended; err == nil {
			t.Fatal("an append without a quorum was acked")
		}
	}

	client.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before boot, %d after close\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrontendCloseEndsWithItsLastAnswer: a frontend role closed while a
// /sample is held in the serve path returns once that answer is written,
// not at http.Server.Shutdown's next idle poll, which backs off to 500 ms
// (about 200 ms after a 300 ms hold).
func TestFrontendCloseEndsWithItsLastAnswer(t *testing.T) {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	cfg, g := testDeploy(t)
	c, err := Boot(cfg, Options{Brokers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, graph.NewEdgeUpdate(graph.Edge{Src: userID(1), Dst: itemID(1), Type: g.click, Ts: 1}))
	if err := c.WaitQuiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	before := faultpoint.Hits("serving.sample")
	faultpoint.Delay("serving.sample", 1, 300*time.Millisecond)
	defer faultpoint.Reset()
	answered := make(chan time.Time, 1)
	go func() {
		resp, err := client.Get(fmt.Sprintf("http://%s/sample?q=0&seed=%d", c.Frontend.Addr, userID(1)))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("held request: %v, %v", resp, err)
		}
		answered <- time.Now()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faultpoint.Hits("serving.sample") == before {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the serve path")
		}
		time.Sleep(time.Millisecond)
	}
	c.Frontend.Close()
	closed := time.Now()
	at := <-answered
	t.Logf("the frontend's Close returned %v after the held request was answered", closed.Sub(at))
	if took := closed.Sub(at); took > 50*time.Millisecond {
		t.Errorf("Close returned %v after the held request was answered, want <= 50ms", took)
	}
}

// TestConcurrentIngestLandsEveryUpdateOnce drives the one router from eight
// goroutines on both topologies and reads the records back off the updates
// topic: every update must land exactly once. (Run under -race it also
// covers the router's stamp.)
func TestConcurrentIngestLandsEveryUpdateOnce(t *testing.T) {
	const writers, each = 8, 100
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			cfg, g := testDeploy(t)
			c, err := Boot(cfg, Options{Brokers: tp.brokers})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						// Vertex updates: each is appended to exactly one partition.
						u := graph.NewVertexUpdate(graph.Vertex{ID: userID(w*each + i), Type: g.user})
						if err := c.Ingest(u); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			updates, ok := c.Broker.Topic(wire.TopicUpdates)
			if !ok {
				t.Fatal("no updates topic")
			}
			seen := make(map[graph.VertexID]bool)
			for p := 0; p < cfg.File.Samplers; p++ {
				recs, err := updates.OpenConsumer(p, 0).Poll(writers*each+1, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					u, err := codec.DecodeUpdate(rec.Value)
					if err != nil {
						t.Fatal(err)
					}
					if seen[u.Vertex.ID] {
						t.Fatalf("vertex %d landed twice", u.Vertex.ID)
					}
					seen[u.Vertex.ID] = true
				}
			}
			if len(seen) != writers*each {
				t.Fatalf("read back %d updates, ingested %d", len(seen), writers*each)
			}
		})
	}
}

// canonical orders a result's order-free parts so two results compare with
// reflect.DeepEqual: each layer as a sorted multiset, the edges sorted.
func canonical(res *serving.Result) *serving.Result {
	out := &serving.Result{Features: res.Features}
	for _, layer := range res.Layers {
		out.Layers = append(out.Layers, sortedIDs(layer))
	}
	out.Edges = append(out.Edges, res.Edges...)
	sort.Slice(out.Edges, func(i, j int) bool {
		a, b := out.Edges[i], out.Edges[j]
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		if a.Child != b.Child {
			return a.Child < b.Child
		}
		return a.Ts < b.Ts
	})
	return out
}

// TestTopologiesAgree feeds one seeded stream through Boot in-process and
// Boot over TCP and requires, after quiesce, the same TopK answer from both
// for every seed vertex: same layers, same edge multiset, same features.
// It is the executable form of "the in-process cluster is exactly what the
// binaries run".
func TestTopologiesAgree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := workload.INTER().Scale(0.002)
			spec.Seed = seed
			answers := make([]map[graph.VertexID]*serving.Result, len(topologies))
			for ti, tp := range topologies {
				gen, err := workload.NewGenerator(spec)
				if err != nil {
					t.Fatal(err)
				}
				q, err := gen.BuildQuery(sampling.TopK)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := deploy.New(gen.Schema(), []query.Query{q}, 2, 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				c, err := Boot(cfg, Options{Brokers: tp.brokers})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if _, err := workload.ReplayAll(gen, c.Ingest); err != nil {
					t.Fatal(err)
				}
				if err := c.WaitQuiesce(time.Minute); err != nil {
					t.Fatal(err)
				}
				answers[ti] = make(map[graph.VertexID]*serving.Result)
				seedType := 0
				for i, v := range spec.Vertices {
					if v.Type == spec.QuerySeed {
						seedType = i
					}
				}
				for i := 0; i < spec.Vertices[seedType].Count; i++ {
					v := workload.VertexIDFor(seedType, i)
					res, err := c.Sample(0, v)
					if err != nil {
						t.Fatalf("%s: sample %d: %v", tp.name, v, err)
					}
					answers[ti][v] = canonical(res)
				}
			}
			nonEmpty := 0
			for v, want := range answers[0] {
				got := answers[1][v]
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed vertex %d: %s answered %+v, %s answered %+v",
						v, topologies[0].name, want, topologies[1].name, got)
				}
				if len(want.Edges) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty == 0 {
				t.Fatal("every answer was empty: the comparison proved nothing")
			}
		})
	}
}

// TestUpdateHopLedger's ceilings. maxBareRequestsPerUpdate bounds a single
// broker's record-less request frames: measured 0.03–0.07 in this tree; the
// long-poll before the fetch stream was 2.14 alone (CHANGES.md, PR 28).
// maxReplicatedRequestsPerUpdate bounds every request frame a replica set
// of three receives: measured 9.1–9.4 (10.0–10.2 under -race) with the
// leader pushing each append to both followers, three frames an append;
// the ceiling is 10.2 and 15 %.
const (
	maxBareRequestsPerUpdate       = 0.1
	maxReplicatedRequestsPerUpdate = 11.7
)

// TestUpdateHopLedger is the update path's row of the work ledger, counted
// and not timed: the request frames the broker endpoints receive per
// update, over a fixed seeded stream ingested one Ingest at a time through
// the TCP topology and then quiesced. An update crosses the broker in the
// frontend's append and the sampler's batched publishes; on a single broker
// every other request frame — what the consumers ask for, meta, commit —
// carries no record and is what the transport decides, and with fetches
// pushed it is next to nothing. A replica set of three also moves every
// record to two followers, and the frames that costs are summed over the
// three endpoints. Appends are counted at the mq.append seam, which each
// of either kind passes once, and logged, not bounded: how many records a
// drained publish run carries depends on what queued while the last append
// was in flight, so it moves with the host's load (2.1–3.1 per update
// here). So are the socket writes of every server and client in the
// process, and, on the single broker, what the log retains against the
// serving cells it feeds.
func TestUpdateHopLedger(t *testing.T) {
	for _, brokers := range []int{1, 3} {
		t.Run(fmt.Sprintf("brokers=%d", brokers), func(t *testing.T) {
			c, row := updateHopLedger(t, brokers)
			t.Logf("per update: %.3f request frames, of them %.3f appends", row.requests, row.appends)
			t.Logf("per update: %.2f server and %.2f client socket writes", row.serverWrites, row.clientWrites)
			if brokers == 1 && row.requests-row.appends > maxBareRequestsPerUpdate {
				t.Fatalf("per update: %.3f request frames that carry no record, ceiling %.1f", row.requests-row.appends, maxBareRequestsPerUpdate)
			}
			if brokers == 3 && row.requests > maxReplicatedRequestsPerUpdate {
				t.Fatalf("per update: %.3f request frames over three replicas, ceiling %.1f", row.requests, maxReplicatedRequestsPerUpdate)
			}
			if brokers == 1 {
				logRetention(t, c)
			}
		})
	}
}

// hopLedger is updateHopLedger's row, per update.
type hopLedger struct {
	requests, appends          float64 // request frames over every broker endpoint; appends among them
	serverWrites, clientWrites float64 // rpc.SocketWrites over the whole process
}

// updateHopLedger ingests the ledger's stream through Boot(Brokers:
// brokers), quiesces, and returns the cluster, closed when t ends, and its
// row.
func updateHopLedger(t *testing.T, brokers int) (*Local, hopLedger) {
	spec := workload.INTER().Scale(0.006)
	spec.Seed = 7
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.BuildQuery(sampling.TopK)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := deploy.New(gen.Schema(), []query.Query{q}, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Boot(cfg, Options{Brokers: brokers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	requests := func() (n int64) {
		for _, b := range c.Brokers {
			n += b.srv.Requests.Value()
		}
		return n
	}
	const updates = 5000
	faultpoint.Delay("mq.append", -1, 0) // armed to count: it delays nothing
	defer faultpoint.Reset()
	before := requests()
	serverBefore, clientBefore := rpc.SocketWrites()
	for i := 0; i < updates; i++ {
		u, ok := gen.Next()
		if !ok {
			t.Fatalf("the stream ended after %d updates", i)
		}
		if err := c.Ingest(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiesce(time.Minute); err != nil {
		t.Fatal(err)
	}
	server, client := rpc.SocketWrites()
	return c, hopLedger{
		requests:     float64(requests()-before) / updates,
		appends:      float64(faultpoint.Hits("mq.append")) / updates,
		serverWrites: float64(server-serverBefore) / updates,
		clientWrites: float64(client-clientBefore) / updates,
	}
}

// logRetention logs what a quiesced cluster's broker retains per topic,
// records and value bytes, beside the distinct live serving cells those
// records build: the count a compacted topic starts from. It is logged,
// not bounded.
func logRetention(t *testing.T, c *Local) {
	t.Helper()
	cells := 0
	for _, s := range c.Servers {
		n, err := s.CacheEntries()
		if err != nil {
			t.Fatal(err)
		}
		cells += n
	}
	t.Logf("serving: %d live cells", cells)
	for _, name := range []string{wire.TopicUpdates, wire.TopicSubs, wire.TopicSamples} {
		topic, ok := c.Broker.Topic(name)
		if !ok {
			t.Fatalf("no %s topic", name)
		}
		var recs, bytes int
		for p := 0; p < topic.NumPartitions(); p++ {
			cur := topic.OpenConsumer(p, 0)
			for {
				batch, err := cur.Poll(4096, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) == 0 {
					break
				}
				recs += len(batch)
				for _, rec := range batch {
					bytes += len(rec.Value)
				}
			}
		}
		t.Logf("%s: %d records retained, %d value bytes, %.2f records per live cell", name, recs, bytes, float64(recs)/float64(max(cells, 1)))
	}
}
