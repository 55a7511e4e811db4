package serving

import (
	"sync/atomic"
	"testing"
	"time"

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
func TestSampleWorkLedger(t *testing.T) {
	s := graph.NewSchema()
	forum, person := s.AddVertexType("Forum"), s.AddVertexType("Person")
	s.AddEdgeType("Has", forum, person)
	s.AddEdgeType("Knows", person, person)
	q, err := query.NewBuilder(s, "Forum").
		Out("Has", 25, sampling.TopK).
		Out("Knows", 10, sampling.TopK).
		Build("ledger")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.Decompose(0, q, s)
	if err != nil {
		t.Fatal(err)
	}

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

	// Fill the cache: the seed's 25 members, 10 acquaintances of each, and a
	// feature for all 276 vertices.
	const seed = graph.VertexID(1)
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
	feature(seed)
	cell(0, seed, 100, 25)
	for i := 0; i < 25; i++ {
		cell(1, graph.VertexID(100+i), graph.VertexID(1000+10*i), 10)
	}

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
		enc = a.finish(false, 0)
	})
	if h, err := enc.Header(); err != nil || h.Lookups != 26 {
		t.Fatalf("assembled header %+v, %v", h, err)
	}
	t.Logf("one [25,10] assembly into a reused buffer: %v allocations", allocs)
	if allocs != 0 {
		t.Errorf("assembling a [25,10] answer allocated %v times, ledger allows 0", allocs)
	}
}

// TestFeatureTextLedger counts the feature rows AppendJSON formats with
// appendFloat32 for the same [25,10] answer read three times from a cold
// memo: all 276 on the first read (stored nowhere) and the second (stored
// now), none on the third, which copies every row's text. Before the memo
// every read formatted all 276.
func TestFeatureTextLedger(t *testing.T) {
	clearFeatureText()
	enc := encodeResult(goldenResult())
	var rows [3]uint64
	for i := range rows {
		before := FormattedRows()
		if _, err := enc.AppendJSON(nil, 1); err != nil {
			t.Fatal(err)
		}
		rows[i] = FormattedRows() - before
	}
	t.Logf("a [25,10] AppendJSON read three times: %v feature rows formatted", rows)
	if rows != [3]uint64{276, 276, 0} {
		t.Errorf("feature rows formatted per read: %v, ledger says [276 276 0]", rows)
	}
}
