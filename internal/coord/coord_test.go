package coord

import (
	"testing"
	"time"
)

func TestHeartbeatsAndLiveness(t *testing.T) {
	c := New()
	c.Heartbeat("saw-0", KindSampler)
	c.Heartbeat("sew-0", KindServer)
	ws := c.Workers()
	if len(ws) != 2 || ws[0].Name != "saw-0" || ws[1].Name != "sew-0" {
		t.Fatalf("workers = %v", ws)
	}
	if dead := c.Dead(time.Second); len(dead) != 0 {
		t.Fatalf("fresh workers reported dead: %v", dead)
	}
	time.Sleep(30 * time.Millisecond)
	c.Heartbeat("saw-0", KindSampler) // keep one alive
	dead := c.Dead(20 * time.Millisecond)
	if len(dead) != 1 || dead[0].Name != "sew-0" {
		t.Fatalf("dead = %v", dead)
	}
}
