package mq

import (
	"fmt"
	"testing"
	"time"

	"helios/internal/faultpoint"
	"helios/internal/rpc"
)

// serveOn exposes b on addr ("" = ephemeral) and returns the server and
// bound address, retrying briefly so a just-released port can be rebound.
func serveOn(t *testing.T, b *Broker, addr string) (*rpc.Server, string) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var err error
	for i := 0; i < 100; i++ {
		srv := rpc.NewServer()
		ServeBroker(b, srv)
		var bound string
		bound, err = srv.Listen(addr)
		if err == nil {
			return srv, bound
		}
		srv.Close()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("listen %s: %v", addr, err)
	return nil, ""
}

// TestRemoteBrokerSurvivesServerRestart is the regression test for the
// failure this PR exists to fix: before the reconnecting client, a broker
// listener restart permanently wedged every RemoteBroker — appends failed
// forever and polls never returned data again.
func TestRemoteBrokerSurvivesServerRestart(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	srv1, addr := serveOn(t, b, "")

	rb, err := DialBroker(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	topic, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topic.Append(0, 1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	cur := topic.OpenConsumer(0, 0)
	recs, err := cur.Poll(10, 100*time.Millisecond)
	if err != nil || len(recs) != 1 {
		t.Fatalf("poll before restart: %d recs, %v", len(recs), err)
	}

	// Kill the listener mid-run. The broker object (the retained log)
	// survives, modeling a broker process restart with a durable -dir.
	srv1.Close()

	srv2, _ := serveOn(t, b, addr)
	defer srv2.Close()

	// Append and poll must heal without any new DialBroker.
	if _, err := topic.Append(0, 2, []byte("after")); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
	recs, err = cur.Poll(10, time.Second)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "after" {
		t.Fatalf("poll after restart: %v recs, %v", recs, err)
	}
	if rb.Client().Reconnects.Value() == 0 {
		t.Fatal("no reconnect recorded")
	}
}

// TestRemoteBrokerReopensTopicAfterColdRestart models a broker process
// that comes back with an empty topic table (fresh Broker object): the
// client re-creates the topic on "unknown topic" and carries on.
func TestRemoteBrokerReopensTopicAfterColdRestart(t *testing.T) {
	dir := t.TempDir()
	b1 := NewBroker(Options{Dir: dir})
	srv1, addr := serveOn(t, b1, "")

	rb, err := DialBroker(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	topic, err := rb.OpenTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := topic.Append(i%2, uint64(i), []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Cold restart: new Broker over the same dir, same address, no topics
	// until someone re-creates them.
	srv1.Close()
	b1.Close()
	b2 := NewBroker(Options{Dir: dir})
	defer b2.Close()
	srv2, _ := serveOn(t, b2, addr)
	defer srv2.Close()

	// The append hits "unknown topic", reopens (which replays the
	// segment), and lands at the offset after the replayed records.
	off, err := topic.Append(0, 8, []byte("post"))
	if err != nil {
		t.Fatalf("append after cold restart: %v", err)
	}
	if off != 2 {
		t.Fatalf("append offset after replay = %d, want 2", off)
	}
	// A consumer resuming from 0 replays the retained records too.
	cur := topic.OpenConsumer(0, 0)
	recs, err := cur.Poll(10, time.Second)
	if err != nil || len(recs) != 3 {
		t.Fatalf("replay poll: %d recs, %v", len(recs), err)
	}
}

func TestFaultpointsOnAppendAndFetch(t *testing.T) {
	defer faultpoint.Reset()
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.ErrorOnce("mq.append")
	if _, err := topic.Append(0, 1, []byte("x")); err == nil {
		t.Fatal("armed append should fail")
	}
	if _, err := topic.Append(0, 1, []byte("x")); err != nil {
		t.Fatalf("append after budget: %v", err)
	}
	faultpoint.ErrorOnce("mq.fetch")
	cur := topic.OpenConsumer(0, 0)
	if _, err := cur.Poll(1, 0); err == nil {
		t.Fatal("armed fetch should fail")
	}
	if recs, err := cur.Poll(1, 0); err != nil || len(recs) != 1 {
		t.Fatalf("fetch after budget: %d recs, %v", len(recs), err)
	}
}

// TestFetchStreamResumesAtCursor: whatever ends a stream — the connection
// killed between two pushed frames, the broker failing a fetch mid-stream —
// the next one starts at the cursor, so every record is delivered, in
// order, and the caller sees at most the failure itself.
func TestFetchStreamResumesAtCursor(t *testing.T) {
	defer faultpoint.Reset()
	_, rb, done := startRemote(t)
	defer done()
	topic, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	const total = 300
	for i := 0; i < total; i++ {
		if _, err := topic.Append(0, uint64(i), []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c := topic.OpenConsumer(0, 0)
	// Pushes trickle, so the faults below land mid-stream, not behind it.
	faultpoint.Delay("mq.fetch", -1, 3*time.Millisecond)
	next, failures := int64(0), 0
	for polls := 0; next < total; polls++ {
		switch polls {
		case 2:
			faultpoint.ErrorOnce("rpc.client.read") // the connection dies under the next pushed frame
		case 8:
			faultpoint.ErrorN("mq.fetch", 2) // and later the broker fails the fetch, twice running
		}
		recs, err := c.Poll(7, time.Second)
		if err != nil {
			if IsFatal(err) {
				t.Fatalf("poll %d: fatal %v", polls, err)
			}
			failures++
			continue
		}
		for _, rec := range recs {
			if rec.Offset != next || string(rec.Value) != fmt.Sprintf("r%d", next) {
				t.Fatalf("poll %d: got offset %d (%q), want %d", polls, rec.Offset, rec.Value, next)
			}
			next++
		}
	}
	if rb.Client().Reconnects.Value() == 0 {
		t.Fatal("the killed connection was never re-dialed")
	}
	if faultpoint.Hits("mq.fetch") != 2 || failures > 1 {
		t.Fatalf("mq.fetch fired %d times, %d polls failed (one heal per poll: at most the second fetch failure surfaces)", faultpoint.Hits("mq.fetch"), failures)
	}
}
