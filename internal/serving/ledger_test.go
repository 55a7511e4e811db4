package serving

import (
	"encoding/binary"
	"math"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/sampling"
	"helios/internal/wire"
)

// countingClock counts how often the worker — and anything it hands its
// clock to — asks for the time.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return time.Unix(1_700_000_000, 0)
}

// servingStages is how many stage histograms the serving worker owns
// (queue_wait, khop_assembly, feature_fetch, encode, cache_apply).
const servingStages = 5

// Work-ledger rows the host cannot blur, as counts, for one full [25,10]
// answer. A direct Worker.Sample costs clock reads and histogram
// observations: assembly itself needs three timestamps (start, hops done,
// features done); before the kvstore.get stage was cut each of its 302
// lookups read the clock twice more and observed a histogram, ~607 reads
// and 305 observations per query. Assembling it into a reused buffer
// allocates nothing (Sample plus AppendResult took 635 allocations while the
// cache was an encoded kvstore). And a memory-only worker opens no kvstore.
// ledgerPlan is the [25,10] plan of the work ledgers: Forum -Has-> 25
// members -Knows-> 10 acquaintances each.
func ledgerPlan(tb testing.TB) *query.Plan {
	tb.Helper()
	s := graph.NewSchema()
	forum, person := s.AddVertexType("Forum"), s.AddVertexType("Person")
	s.AddEdgeType("Has", forum, person)
	s.AddEdgeType("Knows", person, person)
	q, err := query.NewBuilder(s, "Forum").
		Out("Has", 25, sampling.TopK).
		Out("Knows", 10, sampling.TopK).
		Build("ledger")
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := query.Decompose(0, q, s)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// fillLedger fills w's cache with a full [25,10] answer for each seed: its
// 25 members (the same for every seed), 10 acquaintances of each, and a
// feature for every vertex, 276 per answer.
func fillLedger(w *Worker, plan *query.Plan, seeds ...graph.VertexID) {
	feature := func(v graph.VertexID) {
		w.applyMessage(0, wire.Message{Kind: wire.KindFeatureUpdate, Vertex: v, Feature: make([]float32, 10)})
	}
	cell := func(hop int, v, first graph.VertexID, n int) {
		refs := make([]wire.SampleRef, n)
		for i := range refs {
			refs[i] = wire.SampleRef{Neighbor: first + graph.VertexID(i), Ts: graph.Timestamp(i + 1)}
			feature(refs[i].Neighbor)
		}
		w.applyMessage(0, wire.Message{Kind: wire.KindSampleUpsert, Hop: plan.OneHops[hop].ID, Vertex: v, Samples: refs})
	}
	for _, seed := range seeds {
		feature(seed)
		cell(0, seed, 100, 25)
	}
	for i := 0; i < 25; i++ {
		cell(1, graph.VertexID(100+i), graph.VertexID(1000+10*i), 10)
	}
}

func TestSampleWorkLedger(t *testing.T) {
	plan := ledgerPlan(t)
	clk, reg := &countingClock{}, obs.NewRegistry()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w, err := New(Config{ID: 0, NumServers: 1, Plans: []*query.Plan{plan}, Broker: b, Clock: clk, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if w.cache.spill != nil {
		t.Error("a memory-only worker opened a kvstore")
	}
	const seed = graph.VertexID(1)
	fillLedger(w, plan, seed)

	observations := func() (n int64) {
		snap := reg.Snapshot()
		for _, h := range snap.Histograms {
			n += h.Count
		}
		for _, h := range snap.Stages {
			n += h.Count
		}
		return n
	}
	obsBefore, readsBefore := observations(), clk.reads.Load()
	res, err := w.Sample(0, seed)
	if err != nil {
		t.Fatal(err)
	}
	reads, observed := clk.reads.Load()-readsBefore, observations()-obsBefore

	if res.Lookups != 26 || len(res.Features) != 276 || res.SampleMisses+res.FeatureMisses != 0 {
		t.Fatalf("not the full [25,10] answer: %d lookups, %d features, %d+%d misses",
			res.Lookups, len(res.Features), res.SampleMisses, res.FeatureMisses)
	}
	t.Logf("one [25,10] Sample: %d clock reads, %d histogram observations", reads, observed)
	if reads > 4 {
		t.Errorf("one Sample read the clock %d times, ledger allows 4", reads)
	}
	if observed > servingStages {
		t.Errorf("one Sample made %d histogram observations, ledger allows one per serving stage (%d)", observed, servingStages)
	}

	if raceEnabled {
		return // race detector instrumentation allocates
	}
	a := getAssembly()
	var enc Encoded
	allocs := testing.AllocsPerRun(100, func() {
		a.reset()
		if err := w.assemble(a, 0, seed, 0, 0); err != nil {
			t.Fatal(err)
		}
		enc = a.finish()
	})
	if h, err := enc.Header(); err != nil || h.Lookups != 26 {
		t.Fatalf("assembled header %+v, %v", h, err)
	}
	t.Logf("one [25,10] assembly into a reused buffer: %v allocations", allocs)
	if allocs != 0 {
		t.Errorf("assembling a [25,10] answer allocated %v times, ledger allows 0", allocs)
	}
}

// TestFeatureTextLedger counts the feature rows and sample cells
// AppendJSON formats for the same [25,10] answer, in the worker's key
// order, read three times from a cold memo: all 276 rows and 26 cells on
// the first read (stored nowhere) and the second (stored now), none on the
// third, which copies every row's, cell's and layer's text. After one
// cell's bytes change, the next two reads format that cell alone. Before
// the memo every read formatted all 276 rows; before it held cells, all 26
// cells.
func TestFeatureTextLedger(t *testing.T) {
	clearFeatureText()
	enc := encodeOrdered(goldenResult())
	reads := func() (rows, cells [3]uint64) {
		for i := range rows {
			r, c := FormattedRows(), FormattedCells()
			if _, err := enc.AppendJSON(nil, 1); err != nil {
				t.Fatal(err)
			}
			rows[i], cells[i] = FormattedRows()-r, FormattedCells()-c
		}
		return rows, cells
	}
	rows, cells := reads()
	t.Logf("a [25,10] AppendJSON read three times: %v feature rows, %v cells formatted", rows, cells)
	if rows != [3]uint64{276, 276, 0} || cells != [3]uint64{26, 26, 0} {
		t.Errorf("rows, cells formatted per read: %v, %v; ledger says [276 276 0], [26 26 0]", rows, cells)
	}
	at := firstWeight(t, enc) // the hop-0 cell's first edge
	binary.LittleEndian.PutUint32(enc[at:], math.Float32bits(0.75))
	rows, cells = reads()
	t.Logf("after the hop-0 cell changed: %v feature rows, %v cells formatted", rows, cells)
	if rows != [3]uint64{} || cells != [3]uint64{1, 1, 0} {
		t.Errorf("after one cell changed, rows, cells formatted per read: %v, %v; ledger says [0 0 0], [1 1 0]", rows, cells)
	}
}

// TestAssembledFeaturesInKeyOrder: the assembler writes each vertex's
// feature once, in the order of its JSON key, so the gateway streams them.
// The ledger answer mixes ids of one, three and four digits ("1" < "100" <
// "1000" < "1001" < "101"), which numeric order alone gets wrong.
func TestAssembledFeaturesInKeyOrder(t *testing.T) {
	plan := ledgerPlan(t)
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	w, err := New(Config{ID: 0, NumServers: 1, Plans: []*query.Plan{plan}, Broker: b, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fillLedger(w, plan, 1)
	enc, err := w.SampleEncoded(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(enc)
	readHeader(r)
	for i, nl := 0, r.Count(minLayer); i < nl; i++ {
		for j, n := 0, r.Count(minVertex); j < n; j++ {
			r.Uvarint()
		}
	}
	for i, ne := 0, r.Count(minEdge); i < ne; i++ {
		r.Uvarint()
		r.Uvarint()
		r.Uvarint()
		r.Varint()
		r.Float32()
	}
	var keys []string
	for i, nf := 0, r.Count(minFeature); i < nf; i++ {
		keys = append(keys, strconv.FormatUint(r.Uvarint(), 10))
		r.RawN(4 * r.Count(4))
	}
	if err := r.Finish(); err != nil || len(keys) != 276 {
		t.Fatalf("%d features, %v", len(keys), err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("feature %d (%s) follows %s", i, keys[i], keys[i-1])
		}
	}
}
