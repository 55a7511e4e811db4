package mq

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"helios/internal/rpc"
)

// Cluster is a Bus over a replicated broker set: every operation routes to
// the current leader of its target partition, and on ErrNotLeader or a
// transport failure the client refreshes the coordinator's versioned
// partition map and retries against the new leader — in-flight work rides
// out a failover instead of being dropped. It is the multi-broker
// counterpart of RemoteBroker, with the same at-least-once append
// semantics, duplicates and all (see DialBroker).

// clusterResolveAttempts bounds one operation's leader-resolution loop.
// Exhausting it surfaces the last error to the caller, whose own retry
// loop (worker pollRetry, frontend shed-and-retry) takes over.
const clusterResolveAttempts = 6

// Cluster routes Bus traffic across broker replicas by partition leader.
type Cluster struct {
	peers   []string
	clients []*rpc.Client // index-aligned with peers, reconnecting
	coordC  *rpc.Client   // partition map + telemetry endpoint
	timeout time.Duration

	// retrySleep spaces leader-resolution attempts (the coordinator needs
	// a detection interval to promote); tests shrink it.
	retrySleep time.Duration
	// refreshEvery rate-limits partition-map fetches so a herd of failing
	// calls does not hammer the coordinator.
	refreshEvery time.Duration

	mu          sync.Mutex
	pm          PartMap
	lastRefresh time.Time
	topics      map[string]*RemoteTopic
}

// DialCluster connects to every broker replica of peers plus the
// coordinator endpoint serving MethodPartMap (empty coordAddr defaults to
// peers[0], the conventional coordinator host). Like DialBroker, the
// underlying clients are self-healing and a peer being down at dial time
// is not an error.
func DialCluster(peers []string, coordAddr string, timeout time.Duration) (*Cluster, error) {
	if len(peers) == 0 {
		return nil, errors.New("mq: cluster needs ≥ 1 peer")
	}
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	if coordAddr == "" {
		coordAddr = peers[0]
	}
	c := &Cluster{
		peers:        peers,
		timeout:      timeout,
		retrySleep:   100 * time.Millisecond,
		refreshEvery: 50 * time.Millisecond,
		topics:       make(map[string]*RemoteTopic),
	}
	for _, addr := range peers {
		// A small retry budget: the leader-resolution loop above it is the
		// real retry policy, and a dead peer should fail fast into a map
		// refresh instead of backing off against a corpse.
		c.clients = append(c.clients, rpc.DialOpts(addr, rpc.Options{RetryBudget: 1}))
	}
	cc := rpc.DialOpts(coordAddr, rpc.Options{RetryBudget: 2})
	c.coordC = cc
	return c, nil
}

// Client exposes the coordinator connection so co-located services
// (telemetry) share it, mirroring RemoteBroker.Client.
func (c *Cluster) Client() *rpc.Client { return c.coordC }

// OpenTopic implements Bus: the topic is created on every reachable
// replica (a leader's quorum wait opens it on a follower that lacks it, so
// one reachable peer is enough to proceed). Reopening a cached topic with
// a different partition count is an error, mirroring broker-side
// CreateTopic: a handle whose partition count disagrees with the broker
// layout would silently misroute.
func (c *Cluster) OpenTopic(name string, partitions int) (TopicHandle, error) {
	c.mu.Lock()
	cached, ok := c.topics[name]
	c.mu.Unlock()
	if ok {
		if cached.parts != partitions {
			return nil, fmt.Errorf("mq: topic %q open with %d partitions, requested %d", name, cached.parts, partitions)
		}
		return cached, nil
	}
	req := openTopicReq(name, partitions)
	created := 0
	var lastErr error
	// c.timeout budgets the whole replica sweep: a dead peer must not
	// multiply the worst case by the replica count.
	deadline := time.Now().Add(c.timeout)
	for _, cl := range c.clients {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = rpc.ErrDeadlineExceeded
			}
			break
		}
		if _, err := cl.Call(methodOpenTopic, req, remaining); err != nil {
			lastErr = err
		} else {
			created++
		}
	}
	if created == 0 {
		return nil, fmt.Errorf("mq: open topic %q on no replica: %w", name, lastErr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.topics[name]; ok {
		// A concurrent open won the insert race; same mismatch rule applies.
		if t.parts != partitions {
			return nil, fmt.Errorf("mq: topic %q open with %d partitions, requested %d", name, t.parts, partitions)
		}
		return t, nil
	}
	t := &RemoteTopic{via: c, timeout: c.timeout, name: name, parts: partitions}
	c.topics[name] = t
	return t, nil
}

// Close implements Bus.
func (c *Cluster) Close() error {
	var firstErr error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.coordC.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// leader resolves the current leader peer for (topic, partition) under the
// client's cached map.
func (c *Cluster) leader(topic string, partition int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pm.Leader(topic, partition, len(c.peers))
}

// refreshMap fetches the coordinator's partition map, rate-limited so
// concurrent failing calls collapse into one fetch. Best-effort: an
// unreachable coordinator, or a map naming a leader outside the replica
// set, leaves the cached map in place (the static partition % R default
// still routes most traffic correctly).
func (c *Cluster) refreshMap() {
	c.mu.Lock()
	if time.Since(c.lastRefresh) < c.refreshEvery {
		c.mu.Unlock()
		return
	}
	c.lastRefresh = time.Now()
	c.mu.Unlock()
	pm, err := FetchPartMap(c.coordC, c.timeout)
	if err != nil || !pm.valid(len(c.peers)) {
		return
	}
	c.mu.Lock()
	if pm.Version >= c.pm.Version {
		c.pm = pm
	}
	c.mu.Unlock()
}

// resolvable classifies an error as worth a map-refresh-and-retry: a
// leadership rejection, a quorum timeout (the leader may be mid-demotion),
// or a transport failure (the leader may be dead). Handler-level errors
// like backpressure, and this client's own shutdown, propagate.
func resolvable(err error) bool {
	if IsNotLeader(err) || IsQuorumUnavailable(err) {
		return true
	}
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, rpc.ErrClosed) || errors.Is(err, rpc.ErrDeadlineExceeded) {
		return false
	}
	return true
}

// callPart issues method against the current leader of (topic, part),
// re-resolving leadership on failure. Unknown-topic responses re-create
// the topic on that peer (the RemoteBroker restart-healing contract).
func (c *Cluster) callPart(topic string, parts, part int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	// timeout is a total budget across resolution attempts, like
	// rpc.CallTraced: each retry gets only what remains, so a dead leader
	// cannot multiply the caller's wait by the attempt count.
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	var lastErr error
	for attempt := 0; attempt < clusterResolveAttempts; attempt++ {
		if attempt > 0 {
			c.refreshMap()
		}
		remaining := timeout
		if !deadline.IsZero() {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				if lastErr == nil {
					lastErr = rpc.ErrDeadlineExceeded
				}
				break
			}
		}
		peer := c.leader(topic, part)
		resp, err := c.clients[peer].Call(method, req, remaining)
		if err == nil {
			return resp, nil
		}
		if isUnknownTopic(err) {
			//lint:allow droppederror reason=best-effort heal; the retried call below surfaces the real failure
			_, _ = c.clients[peer].Call(methodOpenTopic, openTopicReq(topic, parts), remaining)
			lastErr = err
			continue
		}
		if !resolvable(err) {
			return nil, err
		}
		lastErr = err
		if attempt < clusterResolveAttempts-1 {
			// Give the coordinator a detection interval before the next
			// resolution; callers' own retry loops absorb longer outages.
			time.Sleep(c.retrySleep)
		}
	}
	return nil, lastErr
}

// streamPart opens a fetch stream on the current leader of (topic, part).
func (c *Cluster) streamPart(topic string, part int, req []byte) (*rpc.Stream, error) {
	return c.clients[c.leader(topic, part)].OpenStream(methodFetch, req, fetchWindow)
}

var _ Bus = (*Cluster)(nil)
