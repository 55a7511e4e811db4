package mq

import (
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"helios/internal/faultpoint"
	"helios/internal/rpc"
)

// startReplicaSet boots n brokers serving the broker surface, wired into
// one replica set with the given quorum. Cleanup
// closes everything; register a leak baseline before calling it so the
// assert runs after the teardown.
func startReplicaSet(t *testing.T, n, quorum int) ([]*Broker, []*rpc.Server, []string) {
	t.Helper()
	brokers := make([]*Broker, n)
	srvs := make([]*rpc.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		b := NewBroker(Options{})
		srv := rpc.NewServer()
		ServeBroker(b, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		brokers[i], srvs[i], addrs[i] = b, srv, addr
	}
	for i, b := range brokers {
		cfg := ReplicationConfig{Self: i, Peers: addrs, Quorum: quorum, Timeout: time.Second}
		if err := b.EnableReplication(cfg); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range brokers {
			srvs[i].Close()
			brokers[i].Close()
		}
	})
	return brokers, srvs, addrs
}

// leakCheck registers a cleanup that fails the test if goroutines did not
// drain back to the baseline. Call it FIRST so it runs after every other
// cleanup (t.Cleanup is LIFO).
func leakCheck(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= baseline+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		nb := runtime.Stack(buf, true)
		t.Errorf("goroutines grew from %d to %d after teardown:\n%s",
			baseline, runtime.NumGoroutine(), buf[:nb])
	})
}

func TestReplicatedAppendReachesQuorum(t *testing.T) {
	leakCheck(t)
	brokers, _, _ := startReplicaSet(t, 3, 2)
	tp, err := brokers[0].CreateTopic("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0's default leader is broker 0; the append must ack only
	// after a follower holds it too.
	off, err := tp.Append(0, 1, []byte("a"))
	if err != nil || off != 0 {
		t.Fatalf("append: off=%d err=%v", off, err)
	}
	// The ack implies >= quorum-1 followers applied the record; both
	// should converge (the second follower's ack may land after ours).
	for _, fi := range []int{1, 2} {
		deadline := time.Now().Add(2 * time.Second)
		for {
			ft, ok := brokers[fi].Topic("t")
			if ok && ft.NextOffset(0) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %d never applied the record", fi)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The high watermark advanced past the batch: consumers see it.
	recs, err := tp.NewConsumer(0, 0).Poll(10, 100*time.Millisecond)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "a" {
		t.Fatalf("leader consumer after quorum: %v %v", recs, err)
	}
	if acks := brokers[0].FollowerAcks.Value(); acks < 1 {
		t.Fatalf("follower ack counter stayed %d", acks)
	}
}

func TestAppendToNonLeaderRejected(t *testing.T) {
	leakCheck(t)
	brokers, _, _ := startReplicaSet(t, 3, 2)
	tp, err := brokers[0].CreateTopic("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 1's default leader is broker 1; broker 0 must reject.
	_, err = tp.Append(1, 1, []byte("a"))
	if !IsNotLeader(err) {
		t.Fatalf("want ErrNotLeader, got %v", err)
	}
	if IsFatal(err) {
		t.Fatal("ErrNotLeader must not kill poll loops")
	}
}

func TestFollowerDeathQuorumStillAcks(t *testing.T) {
	leakCheck(t)
	brokers, srvs, _ := startReplicaSet(t, 3, 2)
	tp, err := brokers[0].CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Append(0, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// One follower dies; quorum 2 of 3 still holds via the survivor.
	srvs[2].Close()
	brokers[2].Close()
	for i := 0; i < 3; i++ {
		if _, err := tp.Append(0, 2, []byte("b")); err != nil {
			t.Fatalf("append %d with one dead follower: %v", i, err)
		}
	}
	recs, err := tp.NewConsumer(0, 0).Poll(10, 100*time.Millisecond)
	if err != nil || len(recs) != 4 {
		t.Fatalf("consumer: %d recs, %v", len(recs), err)
	}
}

// TestQuorumTimeoutFakeTimer drives the leader's quorum wait with a manual
// timer channel: the only follower hangs (a raw listener that never
// responds), the injected timer fires, and the append must fail with
// ErrQuorumUnavailable without the record becoming visible to consumers.
func TestQuorumTimeoutFakeTimer(t *testing.T) {
	leakCheck(t)
	hang, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hang.Close()
	go func() {
		for {
			c, err := hang.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				//lint:allow droppederror reason=test sink draining a hung follower connection
				_, _ = io.Copy(io.Discard, c)
			}()
		}
	}()

	fire := make(chan time.Time, 1)
	b := NewBroker(Options{})
	defer b.Close()
	err = b.EnableReplication(ReplicationConfig{
		Self:    0,
		Peers:   []string{"127.0.0.1:1", hang.Addr().String()},
		Quorum:  2,
		Timeout: 300 * time.Millisecond, // bounds the hung follower RPC so its goroutine drains
		After:   func(time.Duration) <-chan time.Time { return fire },
	})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	fire <- time.Time{} // the quorum wait times out immediately
	_, err = tp.Append(0, 1, []byte("a"))
	if !IsQuorumUnavailable(err) {
		t.Fatalf("want ErrQuorumUnavailable, got %v", err)
	}
	if IsFatal(err) {
		t.Fatal("ErrQuorumUnavailable must not kill poll loops")
	}
	// The record was never acked and must stay below the high watermark.
	recs, err := tp.NewConsumer(0, 0).Poll(10, 50*time.Millisecond)
	if err != nil || len(recs) != 0 {
		t.Fatalf("unacked record leaked to consumers: %v %v", recs, err)
	}
}

// TestFsyncAlwaysTornWrite arms the segment fault hooks under FsyncAlways:
// a failed append never enters the in-memory log, and an offset that was
// never acked never resurfaces as committed state after a restart.
func TestFsyncAlwaysTornWrite(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncAlways}
	b := NewBroker(opts)
	tp, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Append(0, 1, []byte("durable")); err != nil {
		t.Fatal(err)
	}

	// A torn segment write: the append fails cleanly and the in-memory
	// log is untouched — durability before visibility.
	faultpoint.ErrorOnce("mq.segment.append")
	if _, err := tp.Append(0, 2, []byte("torn")); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("want injected append failure, got %v", err)
	}
	if n := tp.NextOffset(0); n != 1 {
		t.Fatalf("failed append mutated the log: next=%d", n)
	}

	// A torn fsync: bytes may be in the page cache but the ack is
	// withheld, so the producer knows to retry.
	faultpoint.ErrorOnce("mq.segment.sync")
	if _, err := tp.Append(0, 3, []byte("unsynced")); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("want injected sync failure, got %v", err)
	}
	if n := tp.NextOffset(0); n != 1 {
		t.Fatalf("unsynced append became visible: next=%d", n)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same directory: the acked record is there; no
	// offset the producer saw acked is missing.
	faultpoint.Reset()
	b2 := NewBroker(opts)
	defer b2.Close()
	tp2, err := b2.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := tp2.NextOffset(0); n < 1 {
		t.Fatalf("acked record lost across restart: next=%d", n)
	}
	recs, err := tp2.NewConsumer(0, 0).Poll(10, 100*time.Millisecond)
	if err != nil || len(recs) < 1 || string(recs[0].Value) != "durable" {
		t.Fatalf("acked record unreadable after restart: %v %v", recs, err)
	}
}

// TestReplOffsetsExcludeUnackedTail pins the status-report contract: a
// leader whose append failed quorum holds the record above its high
// watermark, and its replication-status report must advertise the
// quorum-acked position — not the raw log end — so the abandoned tail can
// never make this replica look most-caught-up in a later failover.
func TestReplOffsetsExcludeUnackedTail(t *testing.T) {
	leakCheck(t)
	hang, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hang.Close()
	go func() {
		for {
			c, err := hang.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				//lint:allow droppederror reason=test sink draining a hung follower connection
				_, _ = io.Copy(io.Discard, c)
			}()
		}
	}()

	fire := make(chan time.Time, 1)
	b := NewBroker(Options{})
	defer b.Close()
	err = b.EnableReplication(ReplicationConfig{
		Self:    0,
		Peers:   []string{"127.0.0.1:1", hang.Addr().String()},
		Quorum:  2,
		Timeout: 300 * time.Millisecond,
		After:   func(time.Duration) <-chan time.Time { return fire },
	})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	fire <- time.Time{}
	if _, err := tp.Append(0, 1, []byte("a")); !IsQuorumUnavailable(err) {
		t.Fatalf("want ErrQuorumUnavailable, got %v", err)
	}
	if n := tp.NextOffset(0); n != 1 {
		t.Fatalf("log end = %d, want the un-acked record retained at 1", n)
	}
	for _, e := range b.ReplOffsets() {
		if e.Topic == "t" && e.Partition == 0 && e.Next != 0 {
			t.Fatalf("report advertises the un-acked tail: Next=%d, want hw 0", e.Next)
		}
	}
}

// TestAppendAtTruncatesDivergentTail pins the follower-side divergence
// rule: a fetched batch overlapping the local log verifies the overlap
// instead of skipping it. A mismatch — a revived ex-leader whose un-acked
// tail survived under a restart-pinned high watermark — truncates to the
// divergence point and takes the leader's records, so the follower can
// never ack (and a later promotion never serve) records that differ from
// what the leader streamed.
func TestAppendAtTruncatesDivergentTail(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	tp, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := tp.parts[0]
	// The replica's own log: "a" was quorum-acked, offsets 1-2 are an
	// abandoned leadership tail a restart pinned under hw.
	for _, v := range []string{"a", "stale-b", "stale-c"} {
		if _, err := p.appendBatch([]BatchRecord{{Key: 1, Value: []byte(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	p.hw = p.next // the restart pin: trusts its own durable log
	p.mu.Unlock()

	// The new leader's authoritative stream for [1, 4).
	frame := []Record{
		{Offset: 1, Key: 2, Value: []byte("b"), Ts: 7},
		{Offset: 2, Key: 2, Value: []byte("c"), Ts: 7},
		{Offset: 3, Key: 2, Value: []byte("d"), Ts: 7},
	}
	next, applied, err := p.appendAt(1, frame)
	if err != nil || next != 4 || applied != 3 {
		t.Fatalf("appendAt: next=%d applied=%d err=%v, want 4, 3, nil", next, applied, err)
	}
	recs := p.read(nil, p.head, p.next)
	if len(recs) != 4 {
		t.Fatalf("log holds %d recs", len(recs))
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if string(recs[i].Value) != want {
			t.Fatalf("offset %d holds %q, want %q", i, recs[i].Value, want)
		}
	}
	p.mu.Lock()
	hw := p.hw
	p.mu.Unlock()
	if hw > 1 {
		t.Fatalf("hw = %d after divergence truncation, want clamped ≤ 1", hw)
	}

	// Re-sending the now-matching frame is a pure no-op (idempotent
	// overlap): nothing truncated, nothing applied.
	next, applied, err = p.appendAt(1, frame)
	if err != nil || next != 4 || applied != 0 {
		t.Fatalf("idempotent resend: next=%d applied=%d err=%v, want 4, 0, nil", next, applied, err)
	}
}

func TestFatalityClassification(t *testing.T) {
	for _, tc := range []struct {
		err   error
		fatal bool
	}{
		{ErrNotLeader, false},
		{ErrQuorumUnavailable, false},
		{ErrClosed, true},
		{rpc.ErrClosed, true},
	} {
		if got := IsFatal(tc.err); got != tc.fatal {
			t.Errorf("IsFatal(%v) = %v, want %v", tc.err, got, tc.fatal)
		}
	}
	// Both rejections must classify across an RPC hop, where they arrive
	// as RemoteErrors carrying only the message text.
	if !IsNotLeader(&rpc.RemoteError{Msg: "mq: not leader for t/1 (leader=2)"}) {
		t.Error("remote ErrNotLeader not recognized")
	}
	if !IsQuorumUnavailable(&rpc.RemoteError{Msg: "mq: quorum unavailable: timeout with 0/1 follower acks for t/0 [0,1)"}) {
		t.Error("remote ErrQuorumUnavailable not recognized")
	}
	if IsNotLeader(errors.New("other")) || IsQuorumUnavailable(errors.New("other")) {
		t.Error("unrelated errors misclassified")
	}
}

// TestDivergentFollowerConverges restarts an ex-leader whose log holds a
// record no quorum ever acked, at an offset where the new leader acked a
// different one. The restart pins its high watermark at its log end, so
// the record sits below everything it will be sent next; it must still be
// found and replaced, and after quiesce every replica holds the same log.
func TestDivergentFollowerConverges(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	dir := t.TempDir()
	start := func(i int) (*Broker, *rpc.Server, *Topic) {
		opts := Options{}
		if i == 0 {
			opts.Dir = dir
		}
		b := NewBroker(opts)
		if err := b.EnableReplication(ReplicationConfig{Self: i, Peers: addrs, Quorum: 2, Timeout: time.Second}); err != nil {
			t.Fatal(err)
		}
		srv, _ := serveOn(t, b, addrs[i])
		tp, err := b.CreateTopic("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		return b, srv, tp
	}
	brokers, srvs, topics := make([]*Broker, 3), make([]*rpc.Server, 3), make([]*Topic, 3)
	for i := range brokers {
		brokers[i], srvs[i], topics[i] = start(i)
	}
	defer func() {
		for i := range brokers {
			srvs[i].Close()
			brokers[i].Close()
		}
	}()

	// Broker 0 leads partition 0. One record reaches quorum; then no
	// replica can reach another, and broker 0's next append stays its own.
	if _, err := topics[0].Append(0, 1, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	for _, srv := range srvs {
		srv.Close()
	}
	if _, err := topics[0].Append(0, 2, []byte("stale")); !IsQuorumUnavailable(err) {
		t.Fatalf("append with no reachable replica: %v, want ErrQuorumUnavailable", err)
	}
	brokers[0].Close()

	// Broker 1 takes the lead and acks another record at the same offset.
	pm := PartMap{Version: 1, Leaders: map[PartKey]int{{Topic: "t", Partition: 0}: 1}}
	for i := 1; i < 3; i++ {
		brokers[i].ApplyPartMap(pm)
		srvs[i], _ = serveOn(t, brokers[i], addrs[i])
	}
	if _, err := topics[1].Append(0, 3, []byte("fresh")); err != nil {
		t.Fatal(err)
	}

	// Broker 0 comes back from its directory, learns the map the way a
	// revived replica does, and the new leader appends once more.
	brokers[0], srvs[0], topics[0] = start(0)
	brokers[0].ApplyPartMap(pm)
	if _, err := topics[1].Append(0, 4, []byte("more")); err != nil {
		t.Fatal(err)
	}

	logOf := func(tp *Topic) []Record {
		p := tp.parts[0]
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.read(nil, p.head, p.next)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		want, same := logOf(topics[1]), true
		for _, tp := range []*Topic{topics[0], topics[2]} {
			same = same && reflect.DeepEqual(logOf(tp), want)
		}
		if same && len(want) == 3 {
			return
		}
		if time.Now().After(deadline) {
			for i, tp := range topics {
				for _, rec := range logOf(tp) {
					t.Logf("replica %d: offset %d %q", i, rec.Offset, rec.Value)
				}
			}
			t.Fatal("the replicas' logs never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
