// Package coord implements the running half of the Helios coordinator
// (§4.1): the broker-liveness registry and the broker failover controller
// that reads it. (Sampler, server and frontend liveness is the telemetry
// collector's: a telemetry report is the beat, see internal/monitor.) Its
// deployment-time half lives elsewhere: queries are registered and
// decomposed into one-hop plans when every process derives the shared
// deploy.Config, and periodic checkpointing is paced by the role assembler
// in internal/cluster.
package coord

import (
	"sort"
	"sync"
	"time"

	"helios/internal/clock"
)

// WorkerKind labels registered workers.
type WorkerKind string

const (
	// KindSampler identifies sampling workers.
	KindSampler WorkerKind = "sampler"
	// KindServer identifies serving workers.
	KindServer WorkerKind = "server"
	// KindFrontend identifies frontend gateways (they report telemetry,
	// not data-plane liveness).
	KindFrontend WorkerKind = "frontend"
	// KindBroker identifies broker replicas: their per-partition
	// replication-status reports double as liveness beats, feeding the
	// failover controller's leader-death detection (failover.go).
	KindBroker WorkerKind = "broker"
)

// WorkerInfo is the registry entry for one worker.
type WorkerInfo struct {
	Name     string
	Kind     WorkerKind
	LastBeat time.Time
}

// Coordinator is the control-plane singleton. All methods are safe for
// concurrent use.
type Coordinator struct {
	mu      sync.RWMutex
	workers map[string]*WorkerInfo
	clk     clock.Clock
}

// New returns a coordinator with no workers registered.
func New() *Coordinator {
	return &Coordinator{workers: make(map[string]*WorkerInfo), clk: clock.Wall()}
}

// WithClock replaces the liveness clock (wall by default), returning c
// for chaining. Tests inject a fake so dead-worker detection and
// re-admission run without sleeping. Set it before workers heartbeat.
func (c *Coordinator) WithClock(clk clock.Clock) *Coordinator {
	if clk != nil {
		c.mu.Lock()
		c.clk = clk
		c.mu.Unlock()
	}
	return c
}

// Heartbeat records liveness for a worker, registering it on first beat.
func (c *Coordinator) Heartbeat(name string, kind WorkerKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil {
		w = &WorkerInfo{Name: name, Kind: kind}
		c.workers[name] = w
	}
	w.LastBeat = c.clk.Now()
}

// Workers lists registered workers sorted by name.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dead lists workers whose last heartbeat is older than timeout. A dead
// worker that resumes heartbeating is re-admitted automatically — its
// next Heartbeat refreshes LastBeat, dropping it from this list.
func (c *Coordinator) Dead(timeout time.Duration) []WorkerInfo {
	c.mu.RLock()
	cutoff := c.clk.Now().Add(-timeout)
	c.mu.RUnlock()
	var dead []WorkerInfo
	for _, w := range c.Workers() {
		if w.LastBeat.Before(cutoff) {
			dead = append(dead, w)
		}
	}
	return dead
}
