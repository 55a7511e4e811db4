package gnn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/serving"
)

func TestMatrixOps(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 {
		t.Fatal("At/Set wrong")
	}
	y := m.MulVec([]float32{1, 2, 3})
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("MulVec = %v", y)
	}
	yt := m.MulVecT([]float32{1, 1})
	if yt[0] != 1 || yt[1] != 3 || yt[2] != 2 {
		t.Fatalf("MulVecT = %v", yt)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone aliased")
	}
	m.AddOuter([]float32{1, 0}, []float32{0, 0, 1}, 2)
	if m.At(0, 2) != 4 {
		t.Fatalf("AddOuter: %v", m.W)
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := XavierMatrix(10, 20, rng)
	limit := float32(math.Sqrt(6.0 / 30.0))
	for _, v := range m.W {
		if v < -limit || v > limit {
			t.Fatalf("weight %f outside Xavier bound %f", v, limit)
		}
	}
}

// chainTree builds a depth-2 tree: seed → {a, b}, a → {c}, b → {c, d}.
func chainTree(dim int, rng *rand.Rand) *Tree {
	feat := func() []float32 {
		f := make([]float32, dim)
		for i := range f {
			f[i] = rng.Float32()*2 - 1
		}
		return f
	}
	return &Tree{
		Dim: dim,
		Depths: [][]TreeNode{
			{{V: 1, Feat: feat(), Children: []int{0, 1}}},
			{{V: 2, Feat: feat(), Children: []int{0}}, {V: 3, Feat: feat(), Children: []int{0, 1}}},
			{{V: 4, Feat: feat()}, {V: 5, Feat: feat()}},
		},
	}
}

func TestBuildTreeDedupe(t *testing.T) {
	res := &serving.Result{
		Layers: [][]graph.VertexID{
			{1},
			{2, 3, 2}, // vertex 2 appears twice
			{4, 5, 4, 5, 4, 5},
		},
		Edges: []serving.SampledEdge{
			{Hop: 0, Parent: 1, Child: 2}, {Hop: 0, Parent: 1, Child: 3}, {Hop: 0, Parent: 1, Child: 2},
			{Hop: 1, Parent: 2, Child: 4}, {Hop: 1, Parent: 2, Child: 5},
			{Hop: 1, Parent: 3, Child: 4}, {Hop: 1, Parent: 3, Child: 5},
		},
		Features: map[graph.VertexID][]float32{
			1: {1, 0}, 2: {2, 0}, 3: {3, 0}, 4: {4, 0}, 5: {5, 0},
		},
	}
	tree := BuildTree(res, 2)
	if len(tree.Depths[1]) != 2 {
		t.Fatalf("depth 1 should dedupe to 2 nodes, got %d", len(tree.Depths[1]))
	}
	if len(tree.Depths[0][0].Children) != 2 {
		t.Fatalf("seed children should dedupe to 2, got %d", len(tree.Depths[0][0].Children))
	}
	// Missing/short features become zero vectors of the right length.
	res.Features = map[graph.VertexID][]float32{}
	tree2 := BuildTree(res, 2)
	if len(tree2.Depths[0][0].Feat) != 2 || tree2.Depths[0][0].Feat[0] != 0 {
		t.Fatal("missing feature should zero-fill")
	}
}

// TestBuildTreeSkipsHopWithoutLayers hands BuildTree edges whose hop names
// no pair of layers — negative, as a crafted frame decodes, or past the last
// layer. Each is skipped; the rest of the tree stands.
func TestBuildTreeSkipsHopWithoutLayers(t *testing.T) {
	res := chainResult(2)
	want := BuildTree(res, 2)
	res.Edges = append(res.Edges,
		serving.SampledEdge{Hop: -1, Parent: 1, Child: 2},
		serving.SampledEdge{Hop: 2, Parent: 4, Child: 1},
		serving.SampledEdge{Hop: 1 << 40, Parent: 1, Child: 2},
	)
	if got := BuildTree(res, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-range hops changed the tree:\n%+v\n%+v", got, want)
	}
}

// chainResult is a 2-hop sample: seed 1 → {2, 3}, 2 → {4}, 3 → {4, 5},
// with a dim-wide feature on every vertex but 5.
func chainResult(dim int) *serving.Result {
	feat := func(v graph.VertexID) []float32 {
		f := make([]float32, dim)
		for i := range f {
			f[i] = float32(v) - float32(i)/4
		}
		return f
	}
	return &serving.Result{
		Layers: [][]graph.VertexID{{1}, {2, 3}, {4, 4, 5}},
		Edges: []serving.SampledEdge{
			{Hop: 0, Parent: 1, Child: 2}, {Hop: 0, Parent: 1, Child: 3},
			{Hop: 1, Parent: 2, Child: 4}, {Hop: 1, Parent: 3, Child: 4}, {Hop: 1, Parent: 3, Child: 5},
		},
		Features: map[graph.VertexID][]float32{1: feat(1), 2: feat(2), 3: feat(3), 4: feat(4)},
	}
}

// encodeSample puts res in the serving wire form the model server reads.
func encodeSample(res *serving.Result) serving.Encoded {
	w := codec.NewWriter(256)
	serving.AppendResult(w, res)
	return w.Bytes()
}

func TestEncoderForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree := chainTree(4, rng)
	enc := NewEncoder([]int{4, 8, 3}, 1)
	emb := enc.Embed(tree)
	if len(emb) != 3 {
		t.Fatalf("embedding dim = %d", len(emb))
	}
	// Leaf tree (depth 0) also works.
	leaf := LeafTree(7, []float32{1, 2, 3, 4}, 4)
	if got := enc.Embed(leaf); len(got) != 3 {
		t.Fatalf("leaf embedding dim = %d", len(got))
	}
	// Empty tree yields zeros.
	if got := enc.Embed(&Tree{Dim: 4}); len(got) != 3 {
		t.Fatal("empty tree should still produce a vector")
	}
	// So does a sample with no seed, as a crafted frame can carry.
	noSeed := &serving.Result{Layers: [][]graph.VertexID{{}, {2}}}
	if got := enc.Embed(BuildTree(noSeed, 4)); len(got) != 3 {
		t.Fatal("seedless tree should still produce a vector")
	}
}

func TestEncoderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := chainTree(4, rng)
	enc := NewEncoder([]int{4, 6, 2}, 5)
	a := enc.Embed(tree)
	b := enc.Embed(tree)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("forward pass not deterministic")
	}
}

func TestNeighborsInfluenceEmbedding(t *testing.T) {
	// Changing a hop-1 neighbour's feature must change the seed embedding
	// (the whole point of aggregation).
	rng := rand.New(rand.NewSource(4))
	tree := chainTree(4, rng)
	enc := NewEncoder([]int{4, 6, 2}, 6)
	before := enc.Embed(tree)
	tree.Depths[1][0].Feat = []float32{9, 9, 9, 9}
	after := enc.Embed(tree)
	if reflect.DeepEqual(before, after) {
		t.Fatal("neighbour features do not influence the embedding")
	}
}

// TestGradientCheck verifies analytic gradients against finite differences
// on a small model.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree := chainTree(3, rng)
	item := LeafTree(9, []float32{0.5, -0.3, 0.2}, 3)
	p := NewLinkPredictor([]int{3, 4, 2}, 11)

	loss := func() float64 {
		s := p.Score(tree, item)
		return -math.Log(float64(s) + 1e-7) // label 1
	}

	// Analytic gradient via one TrainBatch on clones.
	pc := NewLinkPredictor([]int{3, 4, 2}, 11)
	for l := range pc.User.Layers {
		pc.User.Layers[l].WSelf = p.User.Layers[l].WSelf.Clone()
		pc.User.Layers[l].WNeigh = p.User.Layers[l].WNeigh.Clone()
		copy(pc.User.Layers[l].B, p.User.Layers[l].B)
	}
	for l := range pc.Item.Layers {
		pc.Item.Layers[l].WSelf = p.Item.Layers[l].WSelf.Clone()
		pc.Item.Layers[l].WNeigh = p.Item.Layers[l].WNeigh.Clone()
		copy(pc.Item.Layers[l].B, p.Item.Layers[l].B)
	}
	gu := newGrads(pc.User)
	gi := newGrads(pc.Item)
	uEmb, uAct := pc.User.forward(tree)
	iEmb, iAct := pc.Item.forward(item)
	pred := sigmoid(dot(uEmb, iEmb))
	dLogit := pred - 1
	dU := append([]float32(nil), iEmb...)
	scaleVec(dU, dLogit)
	dI := append([]float32(nil), uEmb...)
	scaleVec(dI, dLogit)
	pc.User.backward(tree, uAct, dU, gu)
	pc.Item.backward(item, iAct, dI, gi)

	// Finite differences on a sample of user-tower weights.
	const eps = 1e-3
	checks := 0
	for l := range p.User.Layers {
		for _, mpair := range []struct {
			w Matrix
			g Matrix
		}{
			{p.User.Layers[l].WSelf, gu.dWSelf[l]},
			{p.User.Layers[l].WNeigh, gu.dWNeigh[l]},
		} {
			for idx := 0; idx < len(mpair.w.W); idx += 3 {
				orig := mpair.w.W[idx]
				mpair.w.W[idx] = orig + eps
				lp := loss()
				mpair.w.W[idx] = orig - eps
				lm := loss()
				mpair.w.W[idx] = orig
				numeric := (lp - lm) / (2 * eps)
				analytic := float64(mpair.g.W[idx])
				if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d idx %d: numeric %f vs analytic %f", l, idx, numeric, analytic)
				}
				checks++
			}
		}
	}
	if checks < 10 {
		t.Fatal("gradient check covered too few weights")
	}
}

func TestTrainingLearnsSeparableData(t *testing.T) {
	// Users whose neighbours carry positive features link to item A,
	// others to item B. Training must push AUC well above chance.
	rng := rand.New(rand.NewSource(12))
	const dim = 4
	mkTree := func(positive bool) *Tree {
		val := float32(1)
		if !positive {
			val = -1
		}
		feat := func() []float32 {
			f := make([]float32, dim)
			for i := range f {
				f[i] = val + rng.Float32()*0.2
			}
			return f
		}
		noise := func() []float32 {
			f := make([]float32, dim)
			for i := range f {
				f[i] = rng.Float32() * 0.1
			}
			return f
		}
		return &Tree{Dim: dim, Depths: [][]TreeNode{
			{{V: 1, Feat: noise(), Children: []int{0, 1}}},
			{{V: 2, Feat: feat()}, {V: 3, Feat: feat()}},
		}}
	}
	itemA := LeafTree(100, []float32{1, 1, 1, 1}, dim)
	itemB := LeafTree(101, []float32{-1, -1, -1, -1}, dim)

	p := NewLinkPredictor([]int{dim, 8, 4}, 21)
	for epoch := 0; epoch < 200; epoch++ {
		var batch []Example
		for i := 0; i < 16; i++ {
			pos := rng.Intn(2) == 0
			user := mkTree(pos)
			item := itemA
			if !pos {
				item = itemB
			}
			// Positive: user matches item; negative: mismatched pair.
			if rng.Intn(2) == 0 {
				batch = append(batch, Example{User: user, Item: item, Label: 1})
			} else {
				wrong := itemB
				if !pos {
					wrong = itemA
				}
				batch = append(batch, Example{User: user, Item: wrong, Label: 0})
			}
		}
		p.TrainBatch(batch, 0.1)
	}
	var scores []float32
	var labels []bool
	for i := 0; i < 200; i++ {
		pos := i%2 == 0
		user := mkTree(pos)
		item := itemA
		if !pos {
			item = itemB
		}
		if i%4 < 2 {
			scores = append(scores, p.Score(user, item))
			labels = append(labels, true)
		} else {
			wrong := itemB
			if !pos {
				wrong = itemA
			}
			scores = append(scores, p.Score(user, wrong))
			labels = append(labels, false)
		}
	}
	auc := AUC(scores, labels)
	if auc < 0.9 {
		t.Fatalf("AUC = %.3f, model failed to learn separable data", auc)
	}
}

func TestAUC(t *testing.T) {
	// Perfect ranking.
	if auc := AUC([]float32{0.9, 0.8, 0.2, 0.1}, []bool{true, true, false, false}); auc != 1.0 {
		t.Fatalf("perfect AUC = %f", auc)
	}
	// Inverted ranking.
	if auc := AUC([]float32{0.1, 0.2, 0.8, 0.9}, []bool{true, true, false, false}); auc != 0.0 {
		t.Fatalf("inverted AUC = %f", auc)
	}
	// All ties → 0.5.
	if auc := AUC([]float32{0.5, 0.5, 0.5, 0.5}, []bool{true, false, true, false}); auc != 0.5 {
		t.Fatalf("tied AUC = %f", auc)
	}
	// Degenerate label sets.
	if auc := AUC([]float32{0.5}, []bool{true}); auc != 0.5 {
		t.Fatal("single-class AUC should be 0.5")
	}
}

// TestModelServer embeds samples through the model server: a well-formed
// one, and one carrying an edge whose hop names no layer (the server runs
// BuildTree on socket bytes). Each must embed as the local path does, and
// neither may fail a call.
func TestModelServer(t *testing.T) {
	enc := NewEncoder([]int{4, 6, 3}, 33)
	srv := NewServer(enc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialModel(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stray := chainResult(4)
	stray.Edges = append(stray.Edges, serving.SampledEdge{Hop: -1, Parent: 1, Child: 2})
	for name, res := range map[string]*serving.Result{"chain": chainResult(4), "hop -1": stray} {
		sample := encodeSample(res)
		decoded, err := sample.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if name == "hop -1" && decoded.Edges[len(decoded.Edges)-1].Hop != -1 {
			t.Fatalf("hop -1 decoded as %d", decoded.Edges[len(decoded.Edges)-1].Hop)
		}
		remote, err := client.Embed(sample)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if local := enc.Embed(BuildTree(decoded, 4)); !reflect.DeepEqual(remote, local) {
			t.Fatalf("%s: remote %v != local %v", name, remote, local)
		}
	}
	if srv.Latency.Count() != 2 {
		t.Fatal("server metrics not recorded")
	}
	if n := srv.srv.Errors.Value(); n != 0 {
		t.Fatalf("server failed %d calls", n)
	}
}

func BenchmarkEmbed2Hop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	// A [25,10]-shaped tree with dim-10 features.
	depth1 := make([]TreeNode, 25)
	depth2 := make([]TreeNode, 250)
	feat := func() []float32 {
		f := make([]float32, 10)
		for i := range f {
			f[i] = rng.Float32()
		}
		return f
	}
	for i := range depth2 {
		depth2[i] = TreeNode{V: graph.VertexID(300 + i), Feat: feat()}
	}
	for i := range depth1 {
		children := make([]int, 10)
		for j := range children {
			children[j] = i*10 + j
		}
		depth1[i] = TreeNode{V: graph.VertexID(100 + i), Feat: feat(), Children: children}
	}
	seedChildren := make([]int, 25)
	for i := range seedChildren {
		seedChildren[i] = i
	}
	tree := &Tree{Dim: 10, Depths: [][]TreeNode{
		{{V: 1, Feat: feat(), Children: seedChildren}}, depth1, depth2,
	}}
	enc := NewEncoder([]int{10, 32, 16}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Embed(tree)
	}
}
