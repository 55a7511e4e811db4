package frontend_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"helios/internal/cluster"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/serving"
	"helios/internal/wire"
)

// The reflective encoder GET /sample used before it transcoded the wire
// form directly, kept as the oracle for the bodies the gateway now writes
// (internal/serving's tests hold the same one against AppendJSON alone).

type resultJSON struct {
	Layers      [][]uint64           `json:"layers"`
	Edges       []edgeOutJSON        `json:"edges"`
	Features    map[string][]float32 `json:"features"`
	Misses      int                  `json:"misses"`
	Trace       string               `json:"trace,omitempty"`
	Degraded    bool                 `json:"degraded,omitempty"`
	StalenessNS int64                `json:"stalenessNs,omitempty"`
}

type edgeOutJSON struct {
	Hop    int    `json:"hop"`
	Parent uint64 `json:"parent"`
	Child  uint64 `json:"child"`
	Ts     int64  `json:"ts"`
}

// reflectiveBody is the old handler's body for res, without the
// per-request members (trace, stalenessNs).
func reflectiveBody(t *testing.T, res *serving.Result) []byte {
	t.Helper()
	out := resultJSON{
		Features: make(map[string][]float32),
		Misses:   res.SampleMisses + res.FeatureMisses,
		Degraded: res.Degraded,
	}
	for _, layer := range res.Layers {
		l := make([]uint64, len(layer))
		for i, v := range layer {
			l[i] = uint64(v)
		}
		out.Layers = append(out.Layers, l)
	}
	for _, e := range res.Edges {
		out.Edges = append(out.Edges, edgeOutJSON{
			Hop: e.Hop, Parent: uint64(e.Parent), Child: uint64(e.Child), Ts: int64(e.Ts),
		})
	}
	for v, feat := range res.Features {
		out.Features[strconv.FormatUint(uint64(v), 10)] = feat
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var traceMember = []byte(`,"trace":"`)

// sameButForTrace reports whether body is want with a trace member added —
// the one per-request part of a normal answer (stalenessNs, the other,
// appears only on degraded ones, which these tests never provoke). It
// allocates nothing, so the allocation count below can check every body.
func sameButForTrace(body, want []byte) bool {
	i := bytes.Index(body, traceMember)
	if i < 0 {
		return false
	}
	j := i + len(traceMember)
	j += bytes.IndexByte(body[j:], '"') + 1
	return len(body)-(j-i) == len(want) && bytes.Equal(body[:i], want[:i]) && bytes.Equal(body[j:], want[i:])
}

const gatewayConfig = `{
  "samplers": 2,
  "servers": 2,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"},
    {"name": "CoPurchase", "src": "Item", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(25).by('TopK').outV('CoPurchase').sample(10).by('TopK')",
    "g.V('User').outV('Click').sample(8).by('TopK')"
  ]
}`

const (
	gatewayUsers = 16
	gatewayItems = 240
)

// bootGatewayGraph boots the deployment and loads a seeded graph whose
// every user has a full [25,10] answer with a 10-float feature per vertex,
// then waits for the pipeline to drain.
func bootGatewayGraph(t testing.TB, o cluster.Options) *cluster.Local {
	t.Helper()
	c, cfg, fe := boot(t, gatewayConfig, o)
	click, _ := cfg.Schema.EdgeTypeID("Click")
	copurchase, _ := cfg.Schema.EdgeTypeID("CoPurchase")
	user, _ := cfg.Schema.VertexTypeID("User")
	item, _ := cfg.Schema.VertexTypeID("Item")
	rng := rand.New(rand.NewSource(21))
	ingest := func(u graph.Update) {
		t.Helper()
		if err := fe.Ingest(u); err != nil {
			t.Fatal(err)
		}
	}
	feature := func() []float32 {
		f := make([]float32, 10)
		for i := range f {
			f[i] = rng.Float32()*2 - 1
		}
		return f
	}
	ts := graph.Timestamp(1_700_000_000_000)
	for u := 1; u <= gatewayUsers; u++ {
		ingest(graph.NewVertexUpdate(graph.Vertex{ID: graph.VertexID(u), Type: user, Feature: feature()}))
	}
	for i := 0; i < gatewayItems; i++ {
		ingest(graph.NewVertexUpdate(graph.Vertex{ID: graph.VertexID(1000 + i), Type: item, Feature: feature()}))
	}
	for u := 1; u <= gatewayUsers; u++ {
		for _, i := range rng.Perm(gatewayItems)[:40] {
			ts++
			ingest(graph.NewEdgeUpdate(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(1000 + i), Type: click, Ts: ts, Weight: 1}))
		}
	}
	for i := 0; i < gatewayItems; i++ {
		for _, j := range rng.Perm(gatewayItems)[:15] {
			ts++
			ingest(graph.NewEdgeUpdate(graph.Edge{Src: graph.VertexID(1000 + i), Dst: graph.VertexID(1000 + j), Type: copurchase, Ts: ts, Weight: 1}))
		}
	}
	if err := c.WaitQuiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// getSample reads one GET /sample into buf, whose capacity it reuses.
func getSample(t *testing.T, client *http.Client, gateway string, seed int, buf *bytes.Buffer) *http.Response {
	t.Helper()
	resp, err := client.Get(gateway + "/sample?q=0&seed=" + strconv.Itoa(seed))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// checkBody fails unless one GET /sample answer is, byte for byte and
// apart from its own trace ID, want, and left sized, not chunked.
func checkBody(seed int, resp *http.Response, body, want []byte) error {
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		return fmt.Errorf("seed %d: %d %q", seed, resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		return fmt.Errorf("seed %d: Content-Length %d, Transfer-Encoding %v for %d bytes",
			seed, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if !sameButForTrace(body, want) {
		return fmt.Errorf("seed %d: gateway body differs from encoding/json:\n got %s\nwant %s", seed, body, want)
	}
	return nil
}

// TestGatewayBodyMatchesReflectiveEncoder checks the one body writer from
// outside: every answer is, byte for byte and apart from its own trace ID,
// what encoding/json makes of the decoded result, and it leaves sized, not
// chunked — read one at a time (every call direct), then from 16
// concurrent clients, whose calls queue behind the window and come back
// from combined frames.
func TestGatewayBodyMatchesReflectiveEncoder(t *testing.T) {
	c := bootGatewayGraph(t, cluster.Options{})
	gateway := "http://" + c.Frontend.Addr
	want := make([][]byte, gatewayUsers+1)
	for seed := 1; seed <= gatewayUsers; seed++ {
		res, err := c.Frontend.Node.Sample(0, graph.VertexID(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Layers) != 3 || len(res.Layers[2]) != 250 || res.FeatureMisses != 0 {
			t.Fatalf("seed %d: not a full [25,10] answer: %d layers, %d misses", seed, len(res.Layers), res.FeatureMisses)
		}
		want[seed] = reflectiveBody(t, res)
	}
	t.Run("direct", func(t *testing.T) {
		var buf bytes.Buffer
		for seed := 1; seed <= gatewayUsers; seed++ {
			resp := getSample(t, http.DefaultClient, gateway, seed, &buf)
			if err := checkBody(seed, resp, buf.Bytes(), want[seed]); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("coalesced", func(t *testing.T) {
		const clients, rounds = 16, 8
		frames := c.Frontend.Node.SampleCalls()
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			go func() {
				client := &http.Client{Transport: &http.Transport{}}
				defer client.CloseIdleConnections()
				var buf bytes.Buffer
				for r := 0; r < rounds; r++ {
					seed := 1 + (i+r)%gatewayUsers
					resp, err := client.Get(gateway + "/sample?q=0&seed=" + strconv.Itoa(seed))
					if err == nil {
						buf.Reset()
						_, err = buf.ReadFrom(resp.Body)
						resp.Body.Close()
					}
					if err == nil {
						err = checkBody(seed, resp, buf.Bytes(), want[seed])
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for i := 0; i < clients; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%d concurrent GET /sample sent %d rpc frames", clients*rounds, c.Frontend.Node.SampleCalls()-frames)
	})
}

// TestGatewayUnencodableFeature: a NaN or infinite feature component can
// reach the cache down the stream path, and JSON cannot carry it. The old
// handler dropped the encoder's error and answered 200 with no body; the
// gateway now builds the body first and answers 500 naming the vertex.
func TestGatewayUnencodableFeature(t *testing.T) {
	log := newCaptureLogger()
	c, cfg, fe := boot(t, coalesceConfig, cluster.Options{})
	fe.SetLogger(log.Logger, 0)
	click, _ := cfg.Schema.EdgeTypeID("Click")
	user, _ := cfg.Schema.VertexTypeID("User")
	item, _ := cfg.Schema.VertexTypeID("Item")
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i, v := range bad {
		seed, it := graph.VertexID(i+1), graph.VertexID(100+i)
		for _, u := range []graph.Update{
			graph.NewVertexUpdate(graph.Vertex{ID: seed, Type: user, Feature: []float32{1, 2}}),
			graph.NewVertexUpdate(graph.Vertex{ID: it, Type: item, Feature: []float32{0.5, v}}),
			graph.NewEdgeUpdate(graph.Edge{Src: seed, Dst: it, Type: click, Ts: 10, Weight: 1}),
		} {
			if err := fe.Ingest(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.WaitQuiesce(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range bad {
		res, err := fe.Sample(0, graph.VertexID(i+1))
		if err != nil || len(res.Features[graph.VertexID(100+i)]) != 2 {
			t.Fatalf("%v: the library path must still carry it: %+v, %v", v, res, err)
		}
		var buf bytes.Buffer
		resp := getSample(t, http.DefaultClient, "http://"+c.Frontend.Addr, i+1, &buf)
		body := buf.Bytes()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%v: status %d, body %q", v, resp.StatusCode, body)
		}
		if want := fmt.Sprintf("vertex %d", 100+i); !strings.Contains(string(body), want) {
			t.Fatalf("%v: message %q does not name %s", v, body, want)
		}
	}
	warned := regexp.MustCompile(`"level":"warn".*"trace":"[1-9a-f][0-9a-f]*","msg":"sample not encodable"`)
	log.mu.Lock()
	lines := log.buf.String()
	log.mu.Unlock()
	if n := len(warned.FindAllString(lines, -1)); n != len(bad) {
		t.Fatalf("%d traced warnings for %d refusals:\n%s", n, len(bad), lines)
	}
}

// Ceilings for TestGatewayAllocCeiling, ~15 % above what this tree measures
// (see CHANGES.md for the parent's counts beside them).
const (
	maxMallocsPerSample = 115   // measured 97.6–98.8
	maxBytesPerSample   = 23500 // measured 19 863–20 511
)

// TestGatewayAllocCeiling counts what the host cannot blur: heap
// allocations and bytes per GET /sample, whole process (client, gateway,
// rpc, serving actor), and rpc frames the frontend sends per GET /sample
// (exactly one), over 500 sequential requests for fixed seeds on a quiesced
// deployment, while checking each body against the oracle.
func TestGatewayAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := bootGatewayGraph(t, cluster.Options{})
	gateway := "http://" + c.Frontend.Addr
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	want := make([][]byte, gatewayUsers+1)
	for seed := 1; seed <= gatewayUsers; seed++ {
		res, err := c.Frontend.Node.Sample(0, graph.VertexID(seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = reflectiveBody(t, res)
	}
	var buf bytes.Buffer
	for i := 0; i < 3*gatewayUsers; i++ { // warm the connection, the pools, the scratch
		getSample(t, client, gateway, 1+i%gatewayUsers, &buf)
	}
	const requests = 500
	var before, after runtime.MemStats
	framesBefore, rowsBefore := c.Frontend.Node.SampleCalls(), serving.FormattedRows()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		seed := 1 + i%gatewayUsers
		getSample(t, client, gateway, seed, &buf)
		if !sameButForTrace(buf.Bytes(), want[seed]) {
			t.Fatalf("request %d: body differs from encoding/json:\n got %s\nwant %s", i, buf.Bytes(), want[seed])
		}
	}
	runtime.ReadMemStats(&after)
	frames, rows := c.Frontend.Node.SampleCalls()-framesBefore, serving.FormattedRows()-rowsBefore
	mallocs := float64(after.Mallocs-before.Mallocs) / requests
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("per GET /sample (%d-byte body): %.1f mallocs, %.0f bytes, %.2f rpc frames, %.1f feature rows formatted",
		buf.Len(), mallocs, bytesPer, float64(frames)/requests, float64(rows)/requests)
	if frames != requests {
		t.Fatalf("%d GET /sample sent %d rpc frames, want one each", requests, frames)
	}
	if mallocs > maxMallocsPerSample || bytesPer > maxBytesPerSample {
		t.Fatalf("per GET /sample: %.1f mallocs (ceiling %d), %.0f bytes (ceiling %d)",
			mallocs, maxMallocsPerSample, bytesPer, maxBytesPerSample)
	}
}

// TestGatewayRefusesOversizedIngestBody: both ingest routes read at most
// 1 MiB of body. A larger one is refused with 413 and appends nothing to the
// updates topic; a well-formed update afterwards still lands.
func TestGatewayRefusesOversizedIngestBody(t *testing.T) {
	c, _, _ := boot(t, coalesceConfig, cluster.Options{})
	gateway := "http://" + c.Frontend.Addr
	updates, ok := c.Broker.Topic(wire.TopicUpdates)
	if !ok {
		t.Fatal("no updates topic")
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(gateway+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	pad := strings.Repeat("x", 1<<20)
	for path, body := range map[string]string{
		"/ingest/edge":   `{"src": 1, "dst": 100, "ts": 10, "type": "Click` + pad + `"}`,
		"/ingest/vertex": `{"id": 1, "type": "User` + pad + `", "feature": [1]}`,
	} {
		if status := post(path, body); status != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413", path, len(body), status)
		}
	}
	if n := updates.NextOffset(0); n != 0 {
		t.Fatalf("refused bodies appended %d updates", n)
	}
	if status := post("/ingest/edge", `{"src": 1, "dst": 100, "type": "Click", "ts": 10}`); status != http.StatusAccepted {
		t.Fatalf("well-formed edge after the refusals: status %d", status)
	}
	if n := updates.NextOffset(0); n != 1 {
		t.Fatalf("well-formed edge appended %d updates, want 1", n)
	}
}

// TestConfigOverloadBlockReachesGateway: the role binaries take the overload
// policy from the config file alone, so the file's block has to arrive — a
// request that outlives overload.requestTimeoutMs answers 504.
func TestConfigOverloadBlockReachesGateway(t *testing.T) {
	config := strings.Replace(coalesceConfig, `"samplers": 1,`, `"samplers": 1, "overload": {"requestTimeoutMs": 30},`, 1)
	c, _, fe := boot(t, config, cluster.Options{})
	faultpoint.Delay("serving.sample", -1, 200*time.Millisecond)
	defer faultpoint.Reset()
	var buf bytes.Buffer
	resp := getSample(t, http.DefaultClient, "http://"+c.Frontend.Addr, 1, &buf)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504 from the config's 30ms budget", resp.StatusCode, buf.Bytes())
	}
	if fe.DeadlineExceeded.Value() == 0 {
		t.Fatal("expired budget not counted in frontend.deadline_exceeded")
	}
}

// TestGatewayShedsIngestAtBrokerBound: the broker's lag bound is the one
// ingest backpressure mechanism. Once the sampler has committed and then
// stalls, POST /ingest/edge answers 202 until the updates partition is
// bound records ahead of the commit, and 503 after; the frontend counts
// each refused update once as overload.shed{stage=ingest,reason=broker_lag}.
func TestGatewayShedsIngestAtBrokerBound(t *testing.T) {
	const bound, refused = 4, 3
	var o cluster.Options
	o.Broker.MaxIngestLag = bound
	c, _, fe := boot(t, coalesceConfig, o)
	gateway := "http://" + c.Frontend.Addr
	updates, ok := c.Broker.Topic(wire.TopicUpdates)
	if !ok {
		t.Fatal("no updates topic")
	}
	post := func(src int) (int, string) {
		t.Helper()
		body := fmt.Sprintf(`{"src": %d, "dst": 100, "type": "Click", "ts": 10}`, src)
		resp, err := http.Post(gateway+"/ingest/edge", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	if status, msg := post(1); status != http.StatusAccepted {
		t.Fatalf("first edge: status %d (%s)", status, msg)
	}
	deadline := time.Now().Add(10 * time.Second)
	for updates.CommittedOffset(0) != updates.NextOffset(0) {
		if time.Now().After(deadline) {
			t.Fatalf("sampler never committed: committed %d of %d", updates.CommittedOffset(0), updates.NextOffset(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Samplers[0].Stop()

	shed := obs.Name("overload.shed", "stage", "ingest", "reason", "broker_lag")
	for i := 0; i < bound+refused; i++ {
		status, msg := post(2 + i)
		want := http.StatusAccepted
		if i >= bound {
			want = http.StatusServiceUnavailable
		}
		if status != want || (i >= bound && !strings.Contains(msg, "broker_lag")) {
			t.Fatalf("edge %d of a bound of %d: status %d (%s), want %d", i, bound, status, msg, want)
		}
	}
	if n := fe.Metrics().Snapshot().Counters[shed]; n != refused {
		t.Fatalf("%s = %d, want %d", shed, n, refused)
	}
}
