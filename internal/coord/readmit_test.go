package coord

import (
	"testing"
	"time"

	"helios/internal/clock"
)

// A replica that goes silent past the dead timeout and then resumes
// beating must be re-admitted in place: Dead() drops it, with no operator
// intervention — what lets the failover controller see a revived broker.
func TestDeadWorkerReadmission(t *testing.T) {
	clk := clock.NewFake()
	c := New().WithClock(clk)
	const deadAfter = 3 * time.Second

	c.Heartbeat("server-0", KindServer)
	c.Heartbeat("server-1", KindServer)

	// server-1 goes silent; server-0 keeps beating through the window.
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		c.Heartbeat("server-0", KindServer)
	}
	dead := c.Dead(deadAfter)
	if len(dead) != 1 || dead[0].Name != "server-1" {
		t.Fatalf("dead = %+v, want exactly server-1", dead)
	}

	// The dead worker resumes heartbeats: re-admitted on the next beat,
	// not quarantined — its registry entry is refreshed in place.
	c.Heartbeat("server-1", KindServer)
	if dead = c.Dead(deadAfter); len(dead) != 0 {
		t.Fatalf("dead after re-admission = %+v, want none", dead)
	}
	// Still the same worker, not a duplicate registration.
	ws := c.Workers()
	if len(ws) != 2 || ws[1].Name != "server-1" || !ws[1].LastBeat.Equal(clk.Now()) {
		t.Fatalf("workers after re-admission = %+v", ws)
	}
}
