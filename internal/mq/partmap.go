package mq

import (
	"fmt"
	"time"

	"helios/internal/codec"
	"helios/internal/rpc"
)

// Partition-map plumbing shared by brokers, the coordinator's failover
// controller (internal/coord) and cluster clients: who leads each
// (topic, partition), versioned so promotions supersede stale views.
//
// Leadership defaults to partition % len(peers) — a static spread every
// component computes identically with no coordination — and the map holds
// only the overrides failover promotions create. A map is applied
// version-monotonically everywhere: a broker or client never moves from a
// newer view to an older one.

// PartKey addresses one partition of one topic.
type PartKey struct {
	Topic     string
	Partition int
}

// PartMap is the versioned leadership table. The zero value (version 0,
// no overrides) is the deployment-time default assignment.
type PartMap struct {
	Version int64
	Leaders map[PartKey]int
}

// Leader returns the peer index leading (topic, partition) under this map,
// falling back to the static partition % peers spread when no override
// exists.
func (pm *PartMap) Leader(topic string, partition, peers int) int {
	if pm != nil && pm.Leaders != nil {
		if l, ok := pm.Leaders[PartKey{Topic: topic, Partition: partition}]; ok {
			return l
		}
	}
	if peers <= 0 {
		return 0
	}
	return partition % peers
}

// Clone deep-copies the map so callers can mutate their copy freely.
func (pm PartMap) Clone() PartMap {
	out := PartMap{Version: pm.Version, Leaders: make(map[PartKey]int, len(pm.Leaders))}
	for k, v := range pm.Leaders {
		out.Leaders[k] = v
	}
	return out
}

// ReplEntry is one partition's replication position as reported by a
// broker: Next is the offset its log would assign to the next record.
type ReplEntry struct {
	Topic     string
	Partition int
	Next      int64
}

// RPC methods of the replication control plane. MethodLead is served by
// every broker (ServeBroker); MethodPartMap and MethodReplStatus are served
// by the coordinator (coord.Failover.ServeRPC).
const (
	// MethodLead pushes a versioned partition map to a broker.
	MethodLead = "mq.lead"
	// MethodPartMap returns the coordinator's current partition map.
	MethodPartMap = "coord.partmap"
	// MethodReplStatus reports one broker's per-partition offsets to the
	// coordinator (doubles as the broker's liveness beat).
	MethodReplStatus = "coord.replstatus"
)

// EncodePartMap serializes a partition map.
func EncodePartMap(pm PartMap) []byte {
	w := codec.NewWriter(16 + 24*len(pm.Leaders))
	w.Varint(pm.Version)
	w.Uvarint(uint64(len(pm.Leaders)))
	for k, v := range pm.Leaders {
		w.String(k.Topic)
		w.Uvarint(uint64(k.Partition))
		w.Uvarint(uint64(v))
	}
	return w.Bytes()
}

// DecodePartMap parses a partition map. A partition or leader index past
// maxTopicPartitions is refused here; whether a leader names a replica of
// the set is for whoever applies the map to check (PartMap.valid).
func DecodePartMap(buf []byte) (PartMap, error) {
	r := codec.NewReader(buf)
	pm := PartMap{Version: r.Varint()}
	n := r.Count(3) // a topic length, a partition and a leader: a byte each at least
	pm.Leaders = make(map[PartKey]int, n)
	for i := 0; i < n; i++ {
		topic, part, leader := r.String(), r.Uvarint(), r.Uvarint()
		if part >= maxTopicPartitions || leader >= maxTopicPartitions {
			return PartMap{}, fmt.Errorf("mq: partition map names partition %d, leader %d", part, leader)
		}
		pm.Leaders[PartKey{Topic: topic, Partition: int(part)}] = int(leader)
	}
	if err := r.Finish(); err != nil {
		return PartMap{}, err
	}
	return pm, nil
}

// valid reports whether every leader the map names is one of peers
// replicas. A map that fails it is refused whole: the old one stays.
func (pm *PartMap) valid(peers int) bool {
	for _, l := range pm.Leaders {
		if l < 0 || l >= peers {
			return false
		}
	}
	return true
}

// EncodeReplStatus serializes one broker's replication report.
func EncodeReplStatus(peer int, entries []ReplEntry) []byte {
	w := codec.NewWriter(16 + 24*len(entries))
	w.Uvarint(uint64(peer))
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.String(e.Topic)
		w.Uvarint(uint64(e.Partition))
		w.Varint(e.Next)
	}
	return w.Bytes()
}

// DecodeReplStatus parses a replication report.
func DecodeReplStatus(buf []byte) (peer int, entries []ReplEntry, err error) {
	r := codec.NewReader(buf)
	p := r.Uvarint()
	n := r.Count(3) // a topic length, a partition and an offset: a byte each at least
	entries = make([]ReplEntry, 0, n)
	for i := 0; i < n; i++ {
		topic, part, next := r.String(), r.Uvarint(), r.Varint()
		if part >= maxTopicPartitions {
			return 0, nil, fmt.Errorf("mq: replication report names partition %d", part)
		}
		entries = append(entries, ReplEntry{Topic: topic, Partition: int(part), Next: next})
	}
	if err := r.Finish(); err != nil {
		return 0, nil, err
	}
	if p >= maxTopicPartitions {
		return 0, nil, fmt.Errorf("mq: replication report from peer %d", p)
	}
	return int(p), entries, nil
}

// FetchPartMap asks a coordinator endpoint for its current partition map.
func FetchPartMap(c *rpc.Client, timeout time.Duration) (PartMap, error) {
	resp, err := c.Call(MethodPartMap, nil, timeout)
	if err != nil {
		return PartMap{}, err
	}
	return DecodePartMap(resp)
}

// SendLead pushes a partition map to a broker (promotion or demotion sync).
func SendLead(c *rpc.Client, pm PartMap, timeout time.Duration) error {
	_, err := c.Call(MethodLead, EncodePartMap(pm), timeout)
	return err
}

// ReportReplStatus reports a broker's per-partition offsets to the
// coordinator.
func ReportReplStatus(c *rpc.Client, peer int, entries []ReplEntry, timeout time.Duration) error {
	_, err := c.Call(MethodReplStatus, EncodeReplStatus(peer, entries), timeout)
	return err
}

// notLeaderError is the concrete wrapper so the message carries the
// partition and current-leader hint across the RPC boundary.
func notLeaderError(topic string, part, leader int) error {
	return fmt.Errorf("%w for %s/%d (leader=%d)", ErrNotLeader, topic, part, leader)
}
