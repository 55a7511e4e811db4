package frontend_test

import (
	"sort"
	"testing"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/frontend"
	"helios/internal/graph"
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

// boot runs config's deployment over loopback TCP — one broker hosting the
// coordinator, every worker on its own broker connection, serving RPC
// endpoints, the frontend behind its gateway — through the assembler the
// cmd/ binaries use, and tears it down with the test.
func boot(t testing.TB, config string, o cluster.Options) (*cluster.Local, *deploy.Config, *frontend.Frontend) {
	t.Helper()
	cfg, err := deploy.Parse([]byte(config))
	if err != nil {
		t.Fatal(err)
	}
	o.Brokers = 1
	c, err := cluster.Boot(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, cfg, c.Frontend.Node
}

func asSet(vs []graph.VertexID) []uint64 {
	seen := make(map[uint64]bool, len(vs))
	var out []uint64
	for _, v := range vs {
		if !seen[uint64(v)] {
			seen[uint64(v)] = true
			out = append(out, uint64(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
