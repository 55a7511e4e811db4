// Package mq_test exercises the cluster client against the real failover
// controller — an import the in-package tests cannot make (coord imports
// mq).
package mq_test

import (
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/coord"
	"helios/internal/mq"
	"helios/internal/rpc"
)

// TestClusterOpenTopicPartitionMismatch mirrors broker-side CreateTopic
// semantics on the client: reopening a cached topic with a different
// partition count must fail rather than hand back a handle whose
// AppendByKey hashing disagrees with the broker layout.
func TestClusterOpenTopicPartitionMismatch(t *testing.T) {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	srv := rpc.NewServer()
	mq.ServeBroker(b, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := mq.DialCluster([]string{addr}, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.OpenTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenTopic("t", 3); err == nil {
		t.Fatal("reopening with a different partition count must fail")
	}
	tp, err := cl.OpenTopic("t", 2)
	if err != nil || tp.NumPartitions() != 2 {
		t.Fatalf("matching reopen: parts=%v err=%v", tp, err)
	}
}

// TestClusterRidesOutLeaderFailover is the regression test for the
// re-resolution contract: a cluster client (and its consumers) must
// survive a partition leader dying — callPart re-resolves the map from
// the coordinator and retries against the promoted follower — without the
// caller ever seeing an error, and without losing any quorum-acked record.
func TestClusterRidesOutLeaderFailover(t *testing.T) {
	t.Run("one client", func(t *testing.T) { ridesOutLeaderFailover(t, false) })
	// A worker that only consumes: nothing but its Poll refreshes its map,
	// and the leader dies while no stream is open (an idle one has ended).
	t.Run("consumer-only client, idle", func(t *testing.T) { ridesOutLeaderFailover(t, true) })
}

func ridesOutLeaderFailover(t *testing.T, consumerOnly bool) {
	// Replica set of 3, quorum 2.
	const replicas = 3
	brokers := make([]*mq.Broker, replicas)
	srvs := make([]*rpc.Server, replicas)
	addrs := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		brokers[i] = mq.NewBroker(mq.Options{})
		srvs[i] = rpc.NewServer()
		mq.ServeBroker(brokers[i], srvs[i])
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		defer srvs[i].Close()
		defer brokers[i].Close()
	}
	for i := range brokers {
		cfg := mq.ReplicationConfig{Self: i, Peers: addrs, Quorum: 2, Timeout: time.Second}
		if err := brokers[i].EnableReplication(cfg); err != nil {
			t.Fatal(err)
		}
	}

	// Coordinator on a fake clock so leader death is a clock advance, not
	// a sleep; the failover controller serves the partition map over RPC.
	fk := clock.NewFake()
	co := coord.New().WithClock(fk)
	fo := coord.NewFailover(coord.FailoverConfig{
		Coordinator: co,
		Peers:       replicas,
		DeadAfter:   time.Second,
		Notify: func(peer int, pm mq.PartMap) error {
			brokers[peer].ApplyPartMap(pm)
			return nil
		},
	})
	coordSrv := rpc.NewServer()
	fo.ServeRPC(coordSrv)
	coordAddr, err := coordSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coordSrv.Close()

	cl, err := mq.DialCluster(addrs, coordAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tp, err := cl.OpenTopic("t", replicas)
	if err != nil {
		t.Fatal(err)
	}

	// Partition 1's default leader is broker 1. A quorum-acked record
	// lands and is consumed before the failure.
	if _, err := tp.Append(1, 7, []byte("before")); err != nil {
		t.Fatal(err)
	}
	ctp := tp
	if consumerOnly {
		ccl, err := mq.DialCluster(addrs, coordAddr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer ccl.Close()
		if ctp, err = ccl.OpenTopic("t", replicas); err != nil {
			t.Fatal(err)
		}
	}
	cur := ctp.OpenConsumer(1, 0)
	recs, err := cur.Poll(10, time.Second)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "before" {
		t.Fatalf("pre-failover poll: %v %v", recs, err)
	}
	if consumerOnly {
		time.Sleep(400 * time.Millisecond) // past maxFetchPark: the stream has ended
	}

	// Every replica reports once (the controller only fails over leaders
	// it has seen alive), then the leader dies: endpoint closed, reports
	// stop, survivors keep beating past the death threshold.
	for i := range brokers {
		fo.Report(i, brokers[i].ReplOffsets())
	}
	srvs[1].Close()
	fk.Advance(2 * time.Second)
	fo.Report(0, brokers[0].ReplOffsets())
	fo.Report(2, brokers[2].ReplOffsets())
	fo.Step()
	pm := fo.PartMap()
	if got := pm.Leader("t", 1, replicas); got == 1 {
		t.Fatal("controller never promoted a replacement leader")
	}

	// The same topic handle must ride out the failover: the client's
	// cached map still names the corpse, so the first attempt fails,
	// re-resolves from the coordinator, and lands on the promoted leader.
	if _, err := tp.Append(1, 7, []byte("after")); err != nil {
		t.Fatalf("append across failover: %v", err)
	}
	// The standing consumer rides it out the same way — and the acked
	// pre-failover record is never un-delivered or lost.
	deadline := time.Now().Add(5 * time.Second)
	var got []mq.Record
	for time.Now().Before(deadline) && len(got) == 0 {
		recs, err := cur.Poll(10, 200*time.Millisecond)
		if err != nil {
			if mq.IsFatal(err) {
				t.Fatalf("poll loop killed by failover: %v", err)
			}
			continue
		}
		got = append(got, recs...)
	}
	if len(got) != 1 || string(got[0].Value) != "after" {
		t.Fatalf("post-failover poll: %v", got)
	}
	if fo.Failovers.Value() < 1 {
		t.Fatal("failover counter never incremented")
	}
}
