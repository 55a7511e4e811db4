package coord

import (
	"sync"
	"time"

	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/rpc"
)

// Failover is the coordinator-driven broker failover controller (ROADMAP
// item 4): broker replicas report their per-partition replication offsets
// (mq.MethodReplStatus), each report doubling as the replica's liveness
// beat; when a partition's leader goes silent past DeadAfter, the
// controller promotes the most-caught-up live replica and publishes the
// new leadership in a versioned mq.PartMap — pushed to every live broker
// (mq.MethodLead) and served to clients on demand (mq.MethodPartMap).
//
// The controller itself runs wherever the coordinator runs (one designated
// endpoint); it is intentionally not itself replicated — the single
// coordinator is a availability, not a durability, dependency: with it
// down, the cluster keeps serving under the last published map, it merely
// cannot promote until the coordinator returns.

// FailoverConfig wires the controller.
type FailoverConfig struct {
	// Clock stamps report beats and ages them; nil is the wall clock
	// (tests inject a fake, so leader death is an Advance, not a sleep).
	Clock clock.Clock
	// Peers is the broker replica count; replica indices are [0, Peers).
	Peers int
	// DeadAfter is how long a broker may go silent before its partitions
	// fail over; 0 defaults to 3s.
	DeadAfter time.Duration
	// Notify pushes a partition map to one live broker replica. Called
	// without controller locks held. Nil disables pushes (tests poll
	// PartMap directly).
	Notify func(peer int, pm mq.PartMap) error
	// Logger receives promotion events (nil = silent).
	Logger *obs.Logger
}

// Failover tracks replica replication status and drives promotions.
type Failover struct {
	cfg FailoverConfig

	mu     sync.Mutex
	status map[int]map[mq.PartKey]int64 // peer -> partition -> next offset
	beat   map[int]time.Time            // peer -> last report; absent = never reported
	pm     mq.PartMap
	pushed map[int]int64 // peer -> map version last successfully pushed

	// Failovers counts leader promotions (the mq.failovers counter).
	Failovers obs.Counter
}

// NewFailover returns a controller. Its owner calls Step periodically once
// brokers begin reporting (the broker role does; tests step it by hand).
func NewFailover(cfg FailoverConfig) *Failover {
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 3 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	return &Failover{
		cfg:    cfg,
		status: make(map[int]map[mq.PartKey]int64),
		beat:   make(map[int]time.Time),
		pm:     mq.PartMap{Leaders: make(map[mq.PartKey]int)},
		pushed: make(map[int]int64),
	}
}

// Report ingests one broker's replication status. The report is also the
// broker's liveness beat: a replica that stops reporting is, correctly,
// the one whose partitions fail over.
//
// Each report replaces the peer's previous one (last-write-wins, not
// max-merge): a demoted replica legitimately rewinds its log when it
// truncates the un-acked tail back to its high watermark, and promotion
// must compare current offsets — a max-ever merge would let a stale
// revived ex-leader look more caught-up than a replica that actually
// holds every quorum-acked record.
func (f *Failover) Report(peer int, entries []mq.ReplEntry) {
	if peer < 0 || peer >= f.cfg.Peers {
		return
	}
	m := make(map[mq.PartKey]int64, len(entries))
	for _, e := range entries {
		m[mq.PartKey{Topic: e.Topic, Partition: e.Partition}] = e.Next
	}
	now := f.cfg.Clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.status[peer] = m
	f.beat[peer] = now
}

// Reported reports whether replica peer has ever reported: the controller
// fails over only leaders it has seen beat.
func (f *Failover) Reported(peer int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.beat[peer]
	return ok
}

// PartMap returns the controller's current leadership map.
func (f *Failover) PartMap() mq.PartMap {
	f.mu.Lock()
	defer f.mu.Unlock()
	//lint:allow lockacrossblock reason=PartMap.Clone is a pure in-memory copy, not queue I/O
	return f.pm.Clone()
}

// Step runs one detection/promotion/publication round. Exposed so tests
// drive it against a fake clock; the broker role runs it periodically.
func (f *Failover) Step() {
	type promotion struct {
		key  mq.PartKey
		from int
		to   int
		next int64
	}
	var promos []promotion
	cutoff := f.cfg.Clock.Now().Add(-f.cfg.DeadAfter)
	f.mu.Lock()
	// A replica is known once it has reported, and dead once its last
	// report is older than DeadAfter; a dead one that reports again is
	// live again on the next round.
	known := func(peer int) bool { _, ok := f.beat[peer]; return ok }
	dead := func(peer int) bool { t, ok := f.beat[peer]; return ok && t.Before(cutoff) }
	keys := make(map[mq.PartKey]bool)
	for _, m := range f.status {
		for k := range m {
			keys[k] = true
		}
	}
	for k := range keys {
		//lint:allow lockacrossblock reason=PartMap.Leader is a pure in-memory lookup, not queue I/O
		leader := f.pm.Leader(k.Topic, k.Partition, f.cfg.Peers)
		// Only fail over leaders the controller has actually seen die: a
		// replica that never reported is "not started yet", not dead.
		if !dead(leader) {
			continue
		}
		best, bestNext := -1, int64(-1)
		for peer, m := range f.status {
			if dead(peer) || peer == leader {
				continue
			}
			if n, ok := m[k]; ok && (n > bestNext || (n == bestNext && (best < 0 || peer < best))) {
				best, bestNext = peer, n
			}
		}
		if best < 0 {
			continue // no live candidate holds this partition
		}
		f.pm.Leaders[k] = best
		promos = append(promos, promotion{key: k, from: leader, to: best, next: bestNext})
	}
	if len(promos) > 0 {
		// One version covers the whole round: later rounds supersede it
		// monotonically everywhere.
		f.pm.Version++
	}
	//lint:allow lockacrossblock reason=PartMap.Clone is a pure in-memory copy, not queue I/O
	pm := f.pm.Clone()
	// Decide pushes under the lock, issue them outside it.
	var targets []int
	if f.cfg.Notify != nil {
		for peer := 0; peer < f.cfg.Peers; peer++ {
			if dead(peer) || !known(peer) {
				continue // a revived replica is pushed right after its next report
			}
			if f.pushed[peer] < pm.Version {
				targets = append(targets, peer)
			}
		}
	}
	f.mu.Unlock()

	for _, p := range promos {
		f.Failovers.Inc()
		if f.cfg.Logger != nil {
			f.cfg.Logger.Warn(0, "coord.failover", "partition leader promoted",
				"topic", p.key.Topic, "partition", p.key.Partition,
				"from", p.from, "to", p.to, "next", p.next, "version", pm.Version)
		}
	}
	for _, peer := range targets {
		if err := f.cfg.Notify(peer, pm); err == nil {
			f.mu.Lock()
			if f.pushed[peer] < pm.Version {
				f.pushed[peer] = pm.Version
			}
			f.mu.Unlock()
		} else if f.cfg.Logger != nil {
			f.cfg.Logger.Warn(0, "coord.failover", "partition map push failed",
				"peer", peer, "version", pm.Version, "err", err)
		}
	}
}

// RegisterMetrics publishes the failover counter and the current map
// version on reg.
func (f *Failover) RegisterMetrics(reg *obs.Registry) {
	reg.AddCounter(&f.Failovers, "mq.failovers")
	reg.GaugeFunc("coord.partmap_version", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.pm.Version
	})
}

// ServeRPC registers the controller's surface on srv: replica status
// reports in, partition maps out.
func (f *Failover) ServeRPC(srv *rpc.Server) {
	srv.Handle(mq.MethodReplStatus, func(req []byte) ([]byte, error) {
		peer, entries, err := mq.DecodeReplStatus(req)
		if err != nil {
			return nil, err
		}
		f.Report(peer, entries)
		return nil, nil
	})
	srv.Handle(mq.MethodPartMap, func(req []byte) ([]byte, error) {
		r := codec.NewReader(req)
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return mq.EncodePartMap(f.PartMap()), nil
	})
}
