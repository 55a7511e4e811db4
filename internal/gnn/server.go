package gnn

import (
	"fmt"
	"time"

	"helios/internal/codec"
	"helios/internal/obs"
	"helios/internal/rpc"
	"helios/internal/serving"
)

// Model serving (the TensorFlow-Serving substitute of §7.1): a sample
// travels from the Helios serving worker to a model server in the worker's
// own wire form (serving.Encoded, unchanged). The model server decodes it,
// builds the tree at its encoder's input width, runs the GraphSAGE forward
// pass and returns the seed embedding (Fig. 19's end-to-end path).

// MethodEmbed is the RPC method name.
const MethodEmbed = "gnn.embed"

// callTimeout bounds one embed call.
const callTimeout = 10 * time.Second

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
	s.srv.HandleBuf(MethodEmbed, s.handleEmbed)
	return s
}

// Listen binds the server and returns its address.
func (s *Server) Listen(addr string) (string, error) {
	return s.srv.Listen(addr)
}

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// handleEmbed is the model server's whole computation on one request:
// decode the sample (a copy, out of the read loop's buffer), then, parked,
// build its tree at the encoder's input width and run the forward pass.
func (s *Server) handleEmbed(ctx rpc.Ctx, req []byte, resp *codec.Writer) error {
	start := time.Now()
	res, err := serving.Encoded(req).Decode()
	if err != nil {
		return fmt.Errorf("gnn: decode sample: %w", err)
	}
	return rpc.Park(func() error {
		resp.Float32s(s.enc.Embed(BuildTree(res, s.enc.Dims[0])))
		s.Latency.Observe(time.Since(start).Nanoseconds(), ctx.Trace)
		return nil
	})
}

// Client calls a model server.
type Client struct {
	c *rpc.Client
}

// DialModel connects to a model server.
func DialModel(addr string) (*Client, error) {
	c, err := rpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Embed sends a sample, as the serving worker encoded it, and returns the
// seed embedding.
func (c *Client) Embed(sample serving.Encoded) ([]float32, error) {
	resp, err := c.c.Call(MethodEmbed, sample, callTimeout)
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
