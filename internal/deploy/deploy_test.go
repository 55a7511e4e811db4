package deploy

import (
	"os"
	"path/filepath"
	"testing"

	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/sampling"
)

const testConfig = `{
  "samplers": 2,
  "servers": 2,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"},
    {"name": "CoPurchase", "src": "Item", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(2).by('TopK').outV('CoPurchase').sample(2).by('TopK')"
  ]
}`

func TestParse(t *testing.T) {
	cfg, err := Parse([]byte(testConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.File.Samplers != 2 || cfg.File.Servers != 2 {
		t.Fatal("sizes wrong")
	}
	if len(cfg.Plans) != 1 || len(cfg.Plans[0].OneHops) != 2 {
		t.Fatal("plan wrong")
	}
	if cfg.Schema.NumVertexTypes() != 2 || cfg.Schema.NumEdgeTypes() != 2 {
		t.Fatal("schema wrong")
	}
	routing := cfg.EdgeRouting()
	if len(routing) != 2 {
		t.Fatalf("routing = %v", routing)
	}
}

func TestParseErrors(t *testing.T) {
	for name, src := range map[string]string{
		"bad json":        `{`,
		"no queries":      `{"samplers":1,"servers":1,"vertexTypes":["A"],"queries":[]}`,
		"zero samplers":   `{"samplers":0,"servers":1,"queries":["x"]}`,
		"bad edge src":    `{"samplers":1,"servers":1,"vertexTypes":["A"],"edgeTypes":[{"name":"E","src":"Z","dst":"A"}],"queries":["x"]}`,
		"bad edge dst":    `{"samplers":1,"servers":1,"vertexTypes":["A"],"edgeTypes":[{"name":"E","src":"A","dst":"Z"}],"queries":["x"]}`,
		"unparsable dsl":  `{"samplers":1,"servers":1,"vertexTypes":["A"],"queries":["garbage"]}`,
		"type mismatch q": `{"samplers":1,"servers":1,"vertexTypes":["A","B"],"edgeTypes":[{"name":"E","src":"A","dst":"B"}],"queries":["g.V('B').outV('E').sample(2)"]}`,
	} {
		if _, err := Parse([]byte(src)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should fail")
	}
}

// TestNewRegistersCompiledQueries covers the programmatic twin of Parse:
// query IDs are the queries' indices, sizes below one default to one, and
// an invalid query or a missing schema is an error.
func TestNewRegistersCompiledQueries(t *testing.T) {
	s := graph.NewSchema()
	acct := s.AddVertexType("Account")
	s.AddEdgeType("TransferTo", acct, acct)
	q := query.NewBuilder(s, "Account").Out("TransferTo", 2, sampling.TopK).MustBuild("a")
	q2 := q
	q2.Name = "b"
	cfg, err := New(s, []query.Query{q, q2}, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.File.Samplers != 1 || cfg.File.Servers != 3 || cfg.File.Replicas != 1 {
		t.Fatalf("sizes = %+v", cfg.File)
	}
	if len(cfg.Plans) != 2 || cfg.Plans[0].QueryID != 0 || cfg.Plans[1].QueryID != 1 {
		t.Fatalf("plans = %+v", cfg.Plans)
	}
	if cfg.Queries[1].Name != "b" || cfg.Schema != s {
		t.Fatal("queries or schema not carried")
	}
	if _, err := New(s, []query.Query{{}}, 1, 1, 1); err == nil {
		t.Fatal("empty query should fail")
	}
	if _, err := New(s, nil, 1, 1, 1); err == nil {
		t.Fatal("no queries should fail")
	}
	if _, err := New(nil, []query.Query{q}, 1, 1, 1); err == nil {
		t.Fatal("missing schema should fail")
	}
}
