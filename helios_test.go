package helios

import (
	"path/filepath"
	"testing"
	"time"
)

func ecommerce(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	user := s.AddVertexType("User")
	item := s.AddVertexType("Item")
	s.AddEdgeType("Click", user, item)
	s.AddEdgeType("CoPurchase", item, item)
	return s
}

const fig1DSL = `g.V('User').outV('Click').sample(2).by('TopK')
  .outV('CoPurchase').sample(2).by('TopK')`

func TestServiceLifecycle(t *testing.T) {
	s := ecommerce(t)
	svc, err := New(Options{
		Samplers: 2, Servers: 2,
		Schema:  s,
		Queries: []string{fig1DSL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if len(svc.Queries()) != 1 || svc.Queries()[0].K() != 2 {
		t.Fatal("query registration wrong")
	}

	if err := svc.IngestVertex(Vertex{ID: 1, Type: 0, Feature: []float32{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.IngestVertex(Vertex{ID: 1001, Type: 1, Feature: []float32{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.IngestEdge(Edge{Src: 1, Dst: 1001, Type: 0, Ts: 5}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Sync(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	res, err := svc.Sample(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers[1]) != 1 || res.Layers[1][0] != 1001 {
		t.Fatalf("hop-1 = %v", res.Layers[1])
	}
	if res.Features[1001][0] != 3 {
		t.Fatal("neighbour feature missing")
	}

	st := svc.Stats()
	if st.Ingested != 3 || st.ServedRequests != 1 || st.SnapshotsSent == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if svc.Cluster() == nil {
		t.Fatal("cluster accessor nil")
	}
}

func TestServiceValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing schema should fail")
	}
	s := ecommerce(t)
	if _, err := New(Options{Schema: s}); err == nil {
		t.Fatal("no queries should fail")
	}
	if _, err := New(Options{Schema: s, Queries: []string{"garbage"}}); err == nil {
		t.Fatal("bad DSL should fail")
	}
}

func TestServiceWithDiskCache(t *testing.T) {
	dir := t.TempDir()
	s := ecommerce(t)
	svc, err := New(Options{
		Schema:         s,
		Queries:        []string{fig1DSL},
		CacheDir:       dir,
		CacheMemBudget: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 200; i++ {
		svc.IngestVertex(Vertex{ID: VertexID(1000 + i), Type: 1, Feature: make([]float32, 32)})
		svc.IngestEdge(Edge{Src: VertexID(i % 10), Dst: VertexID(1000 + i), Type: 0, Ts: Timestamp(i)})
	}
	if err := svc.Sync(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The tiny budget must have spilled runs to disk.
	matches, _ := filepath.Glob(filepath.Join(dir, "sew-0", "run-*.kv"))
	if len(matches) == 0 {
		t.Fatal("no disk spill despite 1KiB budget")
	}
	if _, err := svc.Sample(0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledQueries(t *testing.T) {
	s := ecommerce(t)
	q, err := ParseQuery(fig1DSL, s)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{Schema: s, CompiledQueries: []Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if len(svc.Queries()) != 1 {
		t.Fatal("compiled query not registered")
	}
}

func TestEnableCheckpoints(t *testing.T) {
	s := ecommerce(t)
	svc, err := New(Options{Schema: s, Queries: []string{fig1DSL}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dir := t.TempDir()
	if err := svc.EnableCheckpoints(dir, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	svc.IngestEdge(Edge{Src: 1, Dst: 1001, Type: 0, Ts: 1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if entries, _ := filepath.Glob(filepath.Join(dir, "sampler-*.ckpt")); len(entries) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTreeFromResult(t *testing.T) {
	s := ecommerce(t)
	svc, err := New(Options{Schema: s, Queries: []string{fig1DSL}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.IngestVertex(Vertex{ID: 1, Type: 0, Feature: []float32{1, 2}})
	svc.IngestVertex(Vertex{ID: 1001, Type: 1, Feature: []float32{3, 4}})
	svc.IngestEdge(Edge{Src: 1, Dst: 1001, Type: 0, Ts: 1})
	if err := svc.Sync(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Sample(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := TreeFromResult(res, 2)
	if len(tree.Depths) < 2 || tree.Depths[0][0].V != 1 {
		t.Fatalf("tree malformed: %+v", tree.Depths)
	}
	if tree.Depths[1][0].Feat[0] != 3 {
		t.Fatal("neighbour feature lost in tree conversion")
	}
}
