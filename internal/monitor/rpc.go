package monitor

import (
	"time"

	"helios/internal/codec"
	"helios/internal/rpc"
)

// The telemetry RPC surface. coord.telemetry rides on the broker binary's
// RPC server and workers report over their existing reconnecting broker
// connection — so telemetry heals across broker restarts with the data
// path, and a worker that cannot deliver snapshots is, correctly, the one
// /cluster shows going stale and then dead: a snapshot is the liveness
// beat.

// MethodTelemetry delivers one worker telemetry snapshot.
const MethodTelemetry = "coord.telemetry"

// ServeRPC registers the collector's RPC surface on srv.
func ServeRPC(c *Collector, srv *rpc.Server) {
	srv.Handle(MethodTelemetry, func(req []byte) ([]byte, error) {
		snap, err := DecodeSnapshot(req)
		if err != nil {
			return nil, err
		}
		c.OnSnapshot(snap)
		return nil, nil
	})
}

// Client ships snapshots to a remote collector. It implements Sink.
type Client struct {
	c       *rpc.Client
	timeout time.Duration
}

// NewClient wraps an established RPC client (typically shared with the
// worker's broker connection). timeout 0 defaults to 5s.
func NewClient(c *rpc.Client, timeout time.Duration) *Client {
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	return &Client{c: c, timeout: timeout}
}

// Report delivers one snapshot.
func (tc *Client) Report(s *WorkerSnapshot) error {
	w := codec.NewWriter(256)
	s.Encode(w)
	_, err := tc.c.Call(MethodTelemetry, w.Bytes(), tc.timeout)
	return err
}
