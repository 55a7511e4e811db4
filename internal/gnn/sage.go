package gnn

import (
	"fmt"
	"math/rand"

	"helios/internal/graph"
	"helios/internal/serving"
)

// Tree is a sampled K-hop neighbourhood prepared for the encoder: distinct
// vertices per depth with child links into the next depth. Missing features
// are zero vectors (the eventual-consistency case where a feature has not
// yet materialized).
type Tree struct {
	// Depths[0] holds exactly the seed.
	Depths [][]TreeNode
	// Dim is the feature dimensionality.
	Dim int
}

// TreeNode is one distinct vertex at one depth.
type TreeNode struct {
	V        graph.VertexID
	Feat     []float32
	Children []int // indices into the next depth
}

// BuildTree assembles a Tree from a sample, with dim-wide features (missing
// or short ones zero-filled). Vertices are deduplicated per depth (all
// occurrences of a vertex carry the same sample cell in Helios, so their
// subtrees are identical). An edge whose hop names no pair of layers is
// skipped: the sample may have come off a socket.
func BuildTree(res *serving.Result, dim int) *Tree {
	t := &Tree{Dim: dim}
	index := make([]map[graph.VertexID]int, len(res.Layers))
	for d, layer := range res.Layers {
		index[d] = make(map[graph.VertexID]int)
		var nodes []TreeNode
		for _, v := range layer {
			if _, ok := index[d][v]; ok {
				continue
			}
			index[d][v] = len(nodes)
			feat := res.Features[v]
			if len(feat) != dim {
				feat = make([]float32, dim) // zero-fill missing/short features
			}
			nodes = append(nodes, TreeNode{V: v, Feat: feat})
		}
		t.Depths = append(t.Depths, nodes)
	}
	seen := make(map[[3]uint64]bool)
	for _, e := range res.Edges {
		d := e.Hop
		if d < 0 || d >= len(t.Depths)-1 { // not d+1: a hop off a socket may be MaxInt
			continue
		}
		pi, ok := index[d][e.Parent]
		if !ok {
			continue
		}
		ci, ok := index[d+1][e.Child]
		if !ok {
			continue
		}
		key := [3]uint64{uint64(d), uint64(e.Parent), uint64(e.Child)}
		if seen[key] {
			continue
		}
		seen[key] = true
		t.Depths[d][pi].Children = append(t.Depths[d][pi].Children, ci)
	}
	return t
}

// LeafTree wraps a single vertex as a depth-0 tree (for encoding an entity
// from its own feature only, e.g. the item tower of the link predictor).
func LeafTree(v graph.VertexID, feat []float32, dim int) *Tree {
	f := feat
	if len(f) != dim {
		f = make([]float32, dim)
	}
	return &Tree{Dim: dim, Depths: [][]TreeNode{{{V: v, Feat: f}}}}
}

// SAGELayer is one GraphSAGE mean-aggregator layer:
//
//	h_v = act(WSelf·h_v + WNeigh·mean_{c∈children(v)} h_c + B)
type SAGELayer struct {
	WSelf, WNeigh Matrix
	B             []float32
}

// Encoder is a K-layer GraphSAGE encoder. Dims[0] is the input feature
// dimension; Dims[len-1] the embedding dimension. Hidden layers use ReLU;
// the output layer is linear (standard for dot-product link prediction).
type Encoder struct {
	Layers []SAGELayer
	Dims   []int
}

// NewEncoder builds an encoder with Xavier-initialized weights.
func NewEncoder(dims []int, seed int64) *Encoder {
	if len(dims) < 2 {
		panic("gnn: encoder needs at least [in, out] dims")
	}
	rng := rand.New(rand.NewSource(seed))
	e := &Encoder{Dims: append([]int(nil), dims...)}
	for l := 1; l < len(dims); l++ {
		e.Layers = append(e.Layers, SAGELayer{
			WSelf:  XavierMatrix(dims[l], dims[l-1], rng),
			WNeigh: XavierMatrix(dims[l], dims[l-1], rng),
			B:      make([]float32, dims[l]),
		})
	}
	return e
}

// NumLayers returns K.
func (e *Encoder) NumLayers() int { return len(e.Layers) }

// activations holds one forward pass's intermediates for backprop:
// act[l][d][i] is the representation of node i at depth d after l GNN
// layers (act[0] = raw features); preAct mirrors it with pre-ReLU values
// for the mask.
type activations struct {
	act    [][][][]float32 // [layer][depth][node][dim] (ragged)
	means  [][][][]float32 // neighbour means consumed at each layer/depth/node
	counts [][][]int       // children counts for mean backprop
}

// Embed runs the forward pass and returns the seed embedding. A tree
// shallower than the encoder still works: depths beyond the tree aggregate
// zero neighbour means.
func (e *Encoder) Embed(t *Tree) []float32 {
	emb, _ := e.forward(t)
	return emb
}

func (e *Encoder) forward(t *Tree) ([]float32, *activations) {
	if len(t.Depths) == 0 || len(t.Depths[0]) == 0 {
		return make([]float32, e.Dims[len(e.Dims)-1]), nil
	}
	K := len(e.Layers)
	a := &activations{}
	// act[0]: raw features, truncated to the depths we need.
	depths := len(t.Depths)
	cur := make([][][]float32, depths)
	for d := 0; d < depths; d++ {
		cur[d] = make([][]float32, len(t.Depths[d]))
		for i, n := range t.Depths[d] {
			cur[d][i] = n.Feat
		}
	}
	a.act = append(a.act, cur)
	for l := 0; l < K; l++ {
		layer := &e.Layers[l]
		needDepths := depths - l - 1
		if needDepths < 1 {
			needDepths = 1
		}
		next := make([][][]float32, needDepths)
		means := make([][][]float32, needDepths)
		counts := make([][]int, needDepths)
		prev := a.act[l]
		for d := 0; d < needDepths && d < len(prev); d++ {
			next[d] = make([][]float32, len(t.Depths[d]))
			means[d] = make([][]float32, len(t.Depths[d]))
			counts[d] = make([]int, len(t.Depths[d]))
			for i, node := range t.Depths[d] {
				mean := make([]float32, e.Dims[l])
				cnt := 0
				if d+1 < len(prev) {
					for _, ci := range node.Children {
						addInto(mean, prev[d+1][ci])
						cnt++
					}
				}
				if cnt > 0 {
					scaleVec(mean, 1/float32(cnt))
				}
				h := layer.WSelf.MulVec(prev[d][i])
				addInto(h, layer.WNeigh.MulVec(mean))
				addInto(h, layer.B)
				if l < K-1 {
					reluInPlace(h)
				}
				next[d][i] = h
				means[d][i] = mean
				counts[d][i] = cnt
			}
		}
		a.act = append(a.act, next)
		a.means = append(a.means, means)
		a.counts = append(a.counts, counts)
	}
	out := a.act[K][0][0]
	return out, a
}

// grads accumulates parameter gradients for one backward pass.
type grads struct {
	dWSelf, dWNeigh []Matrix
	dB              [][]float32
}

func newGrads(e *Encoder) *grads {
	g := &grads{}
	for _, l := range e.Layers {
		g.dWSelf = append(g.dWSelf, NewMatrix(l.WSelf.R, l.WSelf.C))
		g.dWNeigh = append(g.dWNeigh, NewMatrix(l.WNeigh.R, l.WNeigh.C))
		g.dB = append(g.dB, make([]float32, len(l.B)))
	}
	return g
}

// backward propagates dOut (gradient at the seed embedding) through the
// stored activations, accumulating parameter grads.
func (e *Encoder) backward(t *Tree, a *activations, dOut []float32, g *grads) {
	if a == nil {
		return
	}
	K := len(e.Layers)
	// dAct[d][i] at the current layer boundary; start at layer K with only
	// the seed carrying gradient.
	dAct := make([][][]float32, len(a.act[K]))
	for d := range a.act[K] {
		dAct[d] = make([][]float32, len(a.act[K][d]))
	}
	dAct[0][0] = append([]float32(nil), dOut...)

	for l := K - 1; l >= 0; l-- {
		layer := &e.Layers[l]
		prev := a.act[l]
		dPrev := make([][][]float32, len(prev))
		for d := range prev {
			dPrev[d] = make([][]float32, len(prev[d]))
		}
		for d := range dAct {
			for i, dh := range dAct[d] {
				if dh == nil {
					continue
				}
				// ReLU mask for hidden layers.
				if l < K-1 {
					h := a.act[l+1][d][i]
					for j := range dh {
						if h[j] <= 0 {
							dh[j] = 0
						}
					}
				}
				// Parameter grads.
				g.dWSelf[l].AddOuter(dh, prev[d][i], 1)
				g.dWNeigh[l].AddOuter(dh, a.means[l][d][i], 1)
				addInto(g.dB[l], dh)
				// Grad into self input.
				dSelf := layer.WSelf.MulVecT(dh)
				if dPrev[d][i] == nil {
					dPrev[d][i] = dSelf
				} else {
					addInto(dPrev[d][i], dSelf)
				}
				// Grad into neighbour mean → children.
				cnt := a.counts[l][d][i]
				if cnt > 0 && d+1 < len(prev) {
					dMean := layer.WNeigh.MulVecT(dh)
					scaleVec(dMean, 1/float32(cnt))
					for _, ci := range t.Depths[d][i].Children {
						if dPrev[d+1][ci] == nil {
							dPrev[d+1][ci] = append([]float32(nil), dMean...)
						} else {
							addInto(dPrev[d+1][ci], dMean)
						}
					}
				}
			}
		}
		dAct = dPrev
	}
}

// apply performs an SGD step with the accumulated grads scaled by -lr/batch.
func (e *Encoder) apply(g *grads, lr float32, batch int) {
	scale := -lr / float32(batch)
	for l := range e.Layers {
		for i, v := range g.dWSelf[l].W {
			e.Layers[l].WSelf.W[i] += scale * v
		}
		for i, v := range g.dWNeigh[l].W {
			e.Layers[l].WNeigh.W[i] += scale * v
		}
		for i, v := range g.dB[l] {
			e.Layers[l].B[i] += scale * v
		}
	}
}

// String summarizes the encoder shape.
func (e *Encoder) String() string {
	return fmt.Sprintf("GraphSAGE%v", e.Dims)
}
