package coord

import (
	"sync"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/mq"
)

// notifyLog records Notify pushes so tests can assert who was told what.
type notifyLog struct {
	mu    sync.Mutex
	calls map[int]int64 // peer -> last pushed version
}

func (n *notifyLog) push(peer int, pm mq.PartMap) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.calls == nil {
		n.calls = make(map[int]int64)
	}
	n.calls[peer] = pm.Version
	return nil
}

func (n *notifyLog) version(peer int) (int64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.calls[peer]
	return v, ok
}

func newTestFailover(fk *clock.Fake, peers int, nl *notifyLog) *Failover {
	cfg := FailoverConfig{
		Clock:     fk,
		Peers:     peers,
		DeadAfter: time.Second,
	}
	if nl != nil {
		cfg.Notify = nl.push
	}
	return NewFailover(cfg)
}

func entry(topic string, part int, next int64) []mq.ReplEntry {
	return []mq.ReplEntry{{Topic: topic, Partition: part, Next: next}}
}

// TestStepPromotesMostCaughtUp drives one full failover round against a
// fake clock: the leader of t/1 (broker 1 by the partition%R default) goes
// silent, and the controller must promote the live replica with the
// highest replicated offset, bump the map version once, and push the map
// to every live replica — but not to the corpse.
func TestStepPromotesMostCaughtUp(t *testing.T) {
	fk := clock.NewFake()
	nl := &notifyLog{}
	f := newTestFailover(fk, 3, nl)

	f.Report(0, entry("t", 1, 5))
	f.Report(1, entry("t", 1, 9)) // the leader, soon dead
	f.Report(2, entry("t", 1, 7))
	fk.Advance(1500 * time.Millisecond)
	f.Report(0, entry("t", 1, 5))
	f.Report(2, entry("t", 1, 7))
	f.Step()

	pm := f.PartMap()
	if got := pm.Leader("t", 1, 3); got != 2 {
		t.Fatalf("promoted %d, want the most-caught-up live replica 2", got)
	}
	if pm.Version != 1 {
		t.Fatalf("version = %d, want exactly one bump", pm.Version)
	}
	if f.Failovers.Value() != 1 {
		t.Fatalf("failovers = %d, want 1", f.Failovers.Value())
	}
	for _, live := range []int{0, 2} {
		if v, ok := nl.version(live); !ok || v != 1 {
			t.Fatalf("live replica %d not pushed v1 (got %d, %v)", live, v, ok)
		}
	}
	if _, ok := nl.version(1); ok {
		t.Fatal("dead replica was pushed a map")
	}

	// A second round with nothing newly dead must be a no-op: the
	// promoted leader is alive, so no re-promotion, no version churn.
	fk.Advance(100 * time.Millisecond)
	f.Report(0, entry("t", 1, 5))
	f.Report(2, entry("t", 1, 9))
	f.Step()
	if pm := f.PartMap(); pm.Version != 1 || f.Failovers.Value() != 1 {
		t.Fatalf("idle round churned: v%d failovers=%d", pm.Version, f.Failovers.Value())
	}
}

// TestStepNeverReportedLeaderNotFailedOver pins the "known AND dead" rule:
// a replica that never reported is "not started yet", not dead — failing
// it over would promote away from a leader that may hold unseen records.
func TestStepNeverReportedLeaderNotFailedOver(t *testing.T) {
	fk := clock.NewFake()
	f := newTestFailover(fk, 3, nil)

	// Followers report t/1 (led by the silent broker 1); broker 1 never does.
	f.Report(0, entry("t", 1, 5))
	f.Report(2, entry("t", 1, 7))
	fk.Advance(10 * time.Second)
	f.Report(0, entry("t", 1, 5))
	f.Report(2, entry("t", 1, 7))
	f.Step()

	pm := f.PartMap()
	if got := pm.Leader("t", 1, 3); got != 1 {
		t.Fatalf("never-reported leader failed over to %d", got)
	}
	if f.Failovers.Value() != 0 {
		t.Fatalf("failovers = %d, want 0", f.Failovers.Value())
	}
}

// TestStepTieBreaksLowestIndex: equal replicated offsets promote the
// lowest-indexed live replica, keeping promotion deterministic across
// controller restarts.
func TestStepTieBreaksLowestIndex(t *testing.T) {
	fk := clock.NewFake()
	f := newTestFailover(fk, 3, nil)

	f.Report(0, entry("t", 1, 7))
	f.Report(1, entry("t", 1, 9))
	f.Report(2, entry("t", 1, 7))
	fk.Advance(1500 * time.Millisecond)
	f.Report(0, entry("t", 1, 7))
	f.Report(2, entry("t", 1, 7))
	f.Step()

	pm := f.PartMap()
	if got := pm.Leader("t", 1, 3); got != 0 {
		t.Fatalf("tie promoted %d, want lowest index 0", got)
	}
}

// TestReportRewindVisibleToPromotion pins last-write-wins report
// semantics: a demoted replica truncates its un-acked tail back to the
// high watermark and its next report legitimately rewinds Next. The
// controller must promote on *current* offsets — under the old max-merge
// a revived ex-leader's inflated max could win a later failover over a
// replica that actually holds every quorum-acked record.
func TestReportRewindVisibleToPromotion(t *testing.T) {
	fk := clock.NewFake()
	f := newTestFailover(fk, 3, nil)

	// Broker 0 once reported 9 (its un-acked tail as ex-leader), then
	// demoted and rewound to 4; broker 2 genuinely replicated through 7.
	f.Report(0, entry("t", 1, 9))
	f.Report(1, entry("t", 1, 9)) // the leader, soon dead
	f.Report(2, entry("t", 1, 7))
	fk.Advance(1500 * time.Millisecond)
	f.Report(0, entry("t", 1, 4)) // post-demotion rewind
	f.Report(2, entry("t", 1, 7))
	f.Step()

	pm := f.PartMap()
	if got := pm.Leader("t", 1, 3); got != 2 {
		t.Fatalf("promoted %d on a stale max-merged offset, want 2", got)
	}
}

// TestRevivedReplicaGetsMapPushed: a replica that comes back after a
// failover starts reporting again and must receive the current map on the
// next round (its pushed version lags the controller's).
func TestRevivedReplicaGetsMapPushed(t *testing.T) {
	fk := clock.NewFake()
	nl := &notifyLog{}
	f := newTestFailover(fk, 3, nl)

	f.Report(0, entry("t", 1, 5))
	f.Report(1, entry("t", 1, 9))
	f.Report(2, entry("t", 1, 7))
	fk.Advance(1500 * time.Millisecond)
	f.Report(0, entry("t", 1, 5))
	f.Report(2, entry("t", 1, 7))
	f.Step()
	if _, ok := nl.version(1); ok {
		t.Fatal("dead replica pushed before revival")
	}

	// Broker 1 restarts and reports; the next round pushes it v1.
	f.Report(1, entry("t", 1, 9))
	f.Step()
	if v, ok := nl.version(1); !ok || v != 1 {
		t.Fatalf("revived replica not pushed the map (got %d, %v)", v, ok)
	}
}
