package gnn

import (
	"fmt"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/rpc"
)

// Model serving (the TensorFlow-Serving substitute of §7.1): the sampled
// subgraph travels from the Helios serving worker to a model server, which
// runs the GraphSAGE forward pass and returns the seed embedding
// (Fig. 19's end-to-end path).

// MethodEmbed is the RPC method name.
const MethodEmbed = "gnn.embed"

// EncodeTree serializes a tree for the model server.
func EncodeTree(w *codec.Writer, t *Tree) {
	w.Uvarint(uint64(t.Dim))
	w.Uvarint(uint64(len(t.Depths)))
	for _, depth := range t.Depths {
		w.Uvarint(uint64(len(depth)))
		for _, n := range depth {
			w.Uvarint(uint64(n.V))
			w.Float32s(n.Feat)
			w.Uvarint(uint64(len(n.Children)))
			for _, c := range n.Children {
				w.Uvarint(uint64(c))
			}
		}
	}
}

// DecodeTree parses a serialized tree.
func DecodeTree(r *codec.Reader) (*Tree, error) {
	t := &Tree{Dim: int(r.Uvarint())}
	nd := int(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nd > r.Remaining() {
		return nil, codec.ErrShortBuffer
	}
	for d := 0; d < nd; d++ {
		cnt := int(r.Uvarint())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if cnt > r.Remaining() {
			return nil, codec.ErrShortBuffer
		}
		nodes := make([]TreeNode, 0, cnt)
		for i := 0; i < cnt; i++ {
			n := TreeNode{V: graph.VertexID(r.Uvarint())}
			n.Feat = r.Float32s()
			nc := int(r.Uvarint())
			if r.Err() != nil {
				return nil, r.Err()
			}
			if nc > r.Remaining() {
				return nil, codec.ErrShortBuffer
			}
			for j := 0; j < nc; j++ {
				n.Children = append(n.Children, int(r.Uvarint()))
			}
			nodes = append(nodes, n)
		}
		t.Depths = append(t.Depths, nodes)
	}
	return t, r.Err()
}

// Feats returns the features at depth d (test/diagnostic helper).
func (t *Tree) Feats(d int) [][]float32 {
	if d >= len(t.Depths) {
		return nil
	}
	out := make([][]float32, len(t.Depths[d]))
	for i, n := range t.Depths[d] {
		out[i] = n.Feat
	}
	return out
}

// Server wraps an encoder behind the RPC layer.
type Server struct {
	enc *Encoder
	srv *rpc.Server

	// Latency tracks the forward-pass time of every embed call, with the
	// RPC frame's trace ID as the exemplar.
	Latency obs.Histogram
}

// NewServer builds a model server for enc.
func NewServer(enc *Encoder) *Server {
	s := &Server{enc: enc, srv: rpc.NewServer()}
	s.srv.HandleCtx(MethodEmbed, s.handleEmbed)
	return s
}

// Listen binds the server and returns its address.
func (s *Server) Listen(addr string) (string, error) {
	return s.srv.Listen(addr)
}

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleEmbed(ctx rpc.Ctx, req []byte) ([]byte, error) {
	start := time.Now()
	r := codec.NewReader(req)
	t, err := DecodeTree(r)
	if err != nil {
		return nil, fmt.Errorf("gnn: decode tree: %w", err)
	}
	emb := s.enc.Embed(t)
	w := codec.NewWriter(8 + 4*len(emb))
	w.Float32s(emb)
	s.Latency.Observe(time.Since(start).Nanoseconds(), ctx.Trace)
	return w.Bytes(), nil
}

// Client calls a model server.
type Client struct {
	c       *rpc.Client
	timeout time.Duration
}

// DialModel connects to a model server.
func DialModel(addr string, timeout time.Duration) (*Client, error) {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	c, err := rpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, timeout: timeout}, nil
}

// Embed sends a tree and returns the seed embedding.
func (c *Client) Embed(t *Tree) ([]float32, error) {
	w := codec.NewWriter(256)
	EncodeTree(w, t)
	resp, err := c.c.Call(MethodEmbed, w.Bytes(), c.timeout)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(resp)
	emb := r.Float32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return emb, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }
