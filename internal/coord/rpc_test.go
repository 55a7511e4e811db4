package coord

import (
	"testing"
	"time"

	"helios/internal/obs"
	"helios/internal/rpc"
)

func TestHeartbeatOverRPC(t *testing.T) {
	c := New()
	srv := rpc.NewServer()
	ServeRPC(c, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rc, err := rpc.DialOpts(addr, rpc.Options{Reconnect: true, RetryBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	hb := NewClient(rc, 0)
	if err := hb.Heartbeat("sampler-0", KindSampler); err != nil {
		t.Fatal(err)
	}
	if err := hb.Heartbeat("server-1", KindServer); err != nil {
		t.Fatal(err)
	}
	ws := c.Workers()
	if len(ws) != 2 || ws[0].Name != "sampler-0" || ws[0].Kind != KindSampler ||
		ws[1].Name != "server-1" || ws[1].Kind != KindServer {
		t.Fatalf("workers = %+v", ws)
	}
	if ws[0].LastBeat.IsZero() {
		t.Fatal("LastBeat not stamped")
	}
}

func TestHeartbeatSurvivesServerRestart(t *testing.T) {
	c := New()
	srv1 := rpc.NewServer()
	ServeRPC(c, srv1)
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rc, err := rpc.DialOpts(addr, rpc.Options{Reconnect: true, RetryBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	hb := NewClient(rc, 0)
	if err := hb.Heartbeat("sampler-0", KindSampler); err != nil {
		t.Fatal(err)
	}

	srv1.Close()
	var srv2 *rpc.Server
	for i := 0; i < 100; i++ {
		srv2 = rpc.NewServer()
		ServeRPC(c, srv2)
		if _, err = srv2.Listen(addr); err == nil {
			break
		}
		srv2.Close()
		srv2 = nil
		time.Sleep(10 * time.Millisecond)
	}
	if srv2 == nil {
		t.Fatalf("rebind: %v", err)
	}
	defer srv2.Close()

	if err := hb.Heartbeat("sampler-0", KindSampler); err != nil {
		t.Fatalf("heartbeat after restart: %v", err)
	}
	if rc.Reconnects.Value() == 0 {
		t.Fatal("no reconnect recorded")
	}
}

func TestLivenessMetrics(t *testing.T) {
	c := New()
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg, 10*time.Millisecond)
	c.Heartbeat("w0", KindSampler)
	snap := reg.Snapshot()
	if snap.Gauges["coord.workers"] != 1 || snap.Gauges["coord.dead_workers"] != 0 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
	time.Sleep(30 * time.Millisecond)
	snap = reg.Snapshot()
	if snap.Gauges["coord.dead_workers"] != 1 {
		t.Fatalf("dead gauge = %d, want 1", snap.Gauges["coord.dead_workers"])
	}
}
